//! Property-based tests over the device-state layer.
//!
//! Hand-rolled property loops over the in-tree seeded PRNG — each
//! property runs `CASES` deterministic cases.

use rabit_devices::{DeviceId, DeviceState, LabState, StateDiff, StateKey, Value, Vial};
use rabit_geometry::Vec3;
use rabit_util::{FromJson, Json, Rng, ToJson};
use std::collections::{BTreeMap, BTreeSet};

const CASES: usize = 256;

fn lowercase_name(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.random_range(1..max_len + 1);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26u32) as u8) as char)
        .collect()
}

fn state_key(rng: &mut Rng) -> StateKey {
    match rng.random_range(0..8u32) {
        0 => StateKey::DoorOpen,
        1 => StateKey::ActionActive,
        2 => StateKey::ActionValue,
        3 => StateKey::SolidMg,
        4 => StateKey::LiquidMl,
        5 => StateKey::HasStopper,
        6 => StateKey::AtSleep,
        _ => StateKey::Custom(lowercase_name(rng, 8)),
    }
}

fn value(rng: &mut Rng) -> Value {
    match rng.random_range(0..4u32) {
        0 => Value::Bool(rng.random_bool(0.5)),
        1 => Value::Number(rng.random_range(-1e3..1e3)),
        2 => Value::Position(Vec3::new(
            rng.random_range(-2.0..2.0),
            rng.random_range(-2.0..2.0),
            rng.random_range(0.0..2.0),
        )),
        _ => {
            if rng.random_bool(0.5) {
                Value::Id(None)
            } else {
                Value::Id(Some(DeviceId::new(lowercase_name(rng, 6))))
            }
        }
    }
}

fn device_state(rng: &mut Rng) -> DeviceState {
    let n = rng.random_range(0..6usize);
    (0..n).map(|_| (state_key(rng), value(rng))).collect()
}

fn lab_state(rng: &mut Rng) -> LabState {
    let n = rng.random_range(0..5usize);
    (0..n)
        .map(|_| (DeviceId::new(lowercase_name(rng, 6)), device_state(rng)))
        .collect()
}

/// Overlay semantics: every reported variable wins; everything else is
/// retained.
#[test]
fn overlay_reported_wins_and_rest_is_retained() {
    let mut rng = Rng::seed_from_u64(101);
    for _ in 0..CASES {
        let believed = lab_state(&mut rng);
        let reported = lab_state(&mut rng);
        let mut merged = believed.clone();
        merged.overlay(&reported);
        // Reported values are present verbatim.
        for (dev, st) in reported.iter() {
            for (key, val) in st.iter() {
                assert_eq!(merged.get(dev, key), Some(val));
            }
        }
        // Believed-only values survive.
        for (dev, st) in believed.iter() {
            for (key, val) in st.iter() {
                if reported.get(dev, key).is_none() {
                    assert_eq!(merged.get(dev, key), Some(val));
                }
            }
        }
    }
}

/// A snapshot never contradicts itself, at any tolerance.
#[test]
fn self_diff_is_empty() {
    let mut rng = Rng::seed_from_u64(102);
    for _ in 0..CASES {
        let state = lab_state(&mut rng);
        let tol = rng.random_range(0.0..1.0);
        assert!(state.diff_reported(&state, tol).is_empty());
        assert!(state.diff(&state, tol).is_empty());
    }
}

/// `diff_reported` only ever cites variables the reported side has, and
/// loosening the tolerance never creates new findings.
#[test]
fn diff_reported_is_sound_and_monotone() {
    let mut rng = Rng::seed_from_u64(103);
    for _ in 0..CASES {
        let expected = lab_state(&mut rng);
        let reported = lab_state(&mut rng);
        let tol = rng.random_range(0.0..0.5);
        let strict = expected.diff_reported(&reported, tol);
        for d in &strict {
            assert!(reported.get(&d.device, &d.key).is_some());
            assert!(expected.get(&d.device, &d.key).is_some());
        }
        let loose = expected.diff_reported(&reported, tol + 0.5);
        assert!(loose.len() <= strict.len());
    }
}

/// Overlaying the reported snapshot resolves every reported discrepancy:
/// the merged state agrees with the report.
#[test]
fn overlay_resolves_all_reported_diffs() {
    let mut rng = Rng::seed_from_u64(104);
    for _ in 0..CASES {
        let expected = lab_state(&mut rng);
        let reported = lab_state(&mut rng);
        let mut merged = expected.clone();
        merged.overlay(&reported);
        assert!(merged.diff_reported(&reported, 0.0).is_empty());
    }
}

/// LabState survives a JSON round trip (up to sub-nanometre float drift
/// near decimal ties).
#[test]
fn lab_state_json_roundtrip() {
    let mut rng = Rng::seed_from_u64(105);
    for _ in 0..CASES {
        let state = lab_state(&mut rng);
        let json = state.to_json().to_compact();
        let back = LabState::from_json(&Json::parse(&json).unwrap()).unwrap();
        let diffs = back.diff(&state, 1e-9);
        assert!(diffs.is_empty(), "roundtrip drift: {diffs:?}");
    }
}

/// Vial contents conservation: arbitrary add/take sequences keep the
/// contents within [0, capacity], and every gram is accounted for.
#[test]
fn vial_contents_are_conserved() {
    let mut rng = Rng::seed_from_u64(106);
    for _ in 0..CASES {
        let mut vial = Vial::new("v", Vec3::ZERO).with_capacities(10.0, 20.0);
        let mut ledger = 0.0; // what we believe is inside
        let ops = rng.random_range(1..40usize);
        for _ in 0..ops {
            let add = rng.random_bool(0.5);
            let amount = rng.random_range(0.0..30.0);
            if add {
                let spilled = vial.add_solid(amount);
                assert!(spilled >= 0.0 && spilled <= amount + 1e-9);
                ledger += amount - spilled;
            } else {
                let taken = vial.take_solid(amount);
                assert!(taken >= 0.0 && taken <= amount + 1e-9);
                ledger -= taken;
            }
            assert!((vial.solid_mg() - ledger).abs() < 1e-6);
            assert!(vial.solid_mg() >= -1e-9);
            assert!(vial.solid_mg() <= 10.0 + 1e-9);
        }
    }
}

/// The map-of-maps snapshot the sorted-vector `LabState` replaced, with
/// its comparison and overlay written the lookup-based way: the
/// reference the merge walks are checked against.
mod reference {
    use super::*;

    pub type Lab = BTreeMap<DeviceId, BTreeMap<StateKey, Value>>;

    pub fn of(state: &LabState) -> Lab {
        state
            .iter()
            .map(|(id, d)| {
                let vars = d.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                (id.clone(), vars)
            })
            .collect()
    }

    fn get<'a>(lab: &'a Lab, id: &DeviceId, key: &StateKey) -> Option<&'a Value> {
        lab.get(id).and_then(|d| d.get(key))
    }

    pub fn overlay(base: &mut Lab, reported: &Lab) {
        for (id, vars) in reported {
            let entry = base.entry(id.clone()).or_default();
            for (key, value) in vars {
                entry.insert(key.clone(), value.clone());
            }
        }
    }

    pub fn diff_reported(expected: &Lab, reported: &Lab, tol: f64) -> Vec<StateDiff> {
        let mut out = Vec::new();
        for (id, vars) in reported {
            for (key, actual) in vars {
                if let Some(e) = get(expected, id, key) {
                    if !e.approx_eq(actual, tol) {
                        out.push(StateDiff {
                            device: id.clone(),
                            key: key.clone(),
                            left: Some(e.clone()),
                            right: Some(actual.clone()),
                        });
                    }
                }
            }
        }
        out
    }

    pub fn diff(a: &Lab, b: &Lab, tol: f64) -> Vec<StateDiff> {
        let mut out = Vec::new();
        let ids: BTreeSet<&DeviceId> = a.keys().chain(b.keys()).collect();
        for id in ids {
            let keys: BTreeSet<&StateKey> = a
                .get(id)
                .into_iter()
                .chain(b.get(id))
                .flat_map(|d| d.keys())
                .collect();
            for key in keys {
                let (va, vb) = (get(a, id, key), get(b, id, key));
                let equal = match (va, vb) {
                    (Some(x), Some(y)) => x.approx_eq(y, tol),
                    _ => false,
                };
                if !equal {
                    out.push(StateDiff {
                        device: id.clone(),
                        key: key.clone(),
                        left: va.cloned(),
                        right: vb.cloned(),
                    });
                }
            }
        }
        out
    }

    /// The JSON a map-of-maps snapshot serialises to.
    pub fn json(lab: &Lab) -> String {
        Json::Obj(
            lab.iter()
                .map(|(id, vars)| {
                    let vars = vars
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect();
                    (id.to_string(), Json::Obj(vars))
                })
                .collect(),
        )
        .to_compact()
    }
}

/// Device ids and keys are drawn from small pools so that two
/// snapshots share most devices and variables.
const IDS: [&str; 6] = ["arm", "doser", "hp", "vial_a", "vial_b", "zz_custom"];

fn pooled_key(rng: &mut Rng) -> StateKey {
    match rng.random_range(0..9u32) {
        0 => StateKey::DoorOpen,
        1 => StateKey::Holding,
        2 => StateKey::Location,
        3 => StateKey::ActionValue,
        4 => StateKey::SolidMg,
        5 => StateKey::Footprint,
        6 => StateKey::Custom("occupied".into()),
        7 => StateKey::Custom("door_a".into()),
        _ => StateKey::Custom(lowercase_name(rng, 3)),
    }
}

fn pooled_lab(rng: &mut Rng) -> LabState {
    let mut lab = LabState::new();
    for id in IDS {
        if rng.random_bool(0.6) {
            let n = rng.random_range(0..6usize);
            let vars = (0..n).map(|_| (pooled_key(rng), value(rng))).collect();
            lab.insert(id, vars);
        }
    }
    lab
}

/// A value that contradicts `v` by about `tol`: exactly at the
/// tolerance, just inside or just outside it, or of another kind.
fn near(rng: &mut Rng, v: &Value, tol: f64) -> Value {
    let step = match rng.random_range(0..4u32) {
        0 => tol,
        1 => tol * (1.0 - 1e-12),
        2 => tol * (1.0 + 1e-12),
        _ => return value(rng),
    };
    let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
    match v {
        Value::Number(n) => Value::Number(n + sign * step),
        Value::Position(p) => Value::Position(*p + Vec3::new(0.0, sign * step, 0.0)),
        Value::Bool(b) => Value::Bool(!b),
        other => other.clone(),
    }
}

/// A report against `expected`: each believed device is reported, with
/// some of its variables unsensed (believed-only), some confirmed and
/// some contradicted near `tol`; some devices exist on one side only.
fn report_against(rng: &mut Rng, expected: &LabState, tol: f64) -> LabState {
    let mut reported = pooled_lab(rng);
    for (id, vars) in expected.iter() {
        if rng.random_bool(0.2) {
            continue; // believed-only device
        }
        let state = reported.device_mut(id);
        for (key, v) in vars.iter() {
            match rng.random_range(0..4u32) {
                0 => {} // believed-only variable (or whatever the pool drew)
                1 => state.set(key.clone(), v.clone()),
                _ => state.set(key.clone(), near(rng, v, tol)),
            }
        }
    }
    reported
}

fn tolerance(rng: &mut Rng) -> f64 {
    [0.0, 1e-6, 0.01, 0.5][rng.random_range(0..4usize)]
}

/// `diff_reported`, `overlay`, the fused `overlay_diff` and `diff` give
/// exactly what the lookup-based reference gives on the map-of-maps
/// model, difference for difference and value for value.
#[test]
fn merge_walks_match_the_map_reference() {
    let mut rng = Rng::seed_from_u64(107);
    for _ in 0..4 * CASES {
        let tol = tolerance(&mut rng);
        let expected = pooled_lab(&mut rng);
        let reported = report_against(&mut rng, &expected, tol);
        let (e, r) = (reference::of(&expected), reference::of(&reported));

        let want = reference::diff_reported(&e, &r, tol);
        assert_eq!(expected.diff_reported(&reported, tol), want);

        let mut overlaid = e.clone();
        reference::overlay(&mut overlaid, &r);
        let mut merged = expected.clone();
        merged.overlay(&reported);
        // Compared as text, so the snapshot's order is checked too.
        assert_eq!(merged.to_json().to_compact(), reference::json(&overlaid));

        let mut fused = expected.clone();
        assert_eq!(fused.overlay_diff(&reported, Some(tol)), want);
        assert_eq!(fused, merged);
        let mut unchecked = expected.clone();
        assert!(unchecked.overlay_diff(&reported, None).is_empty());
        assert_eq!(unchecked, merged);

        assert_eq!(expected.diff(&reported, tol), reference::diff(&e, &r, tol));
        assert_eq!(reported.diff(&expected, tol), reference::diff(&r, &e, tol));
    }
}

/// `clone_from` into a buffer of any earlier shape yields exactly the
/// source, for snapshots and single devices.
#[test]
fn buffer_reuse_copies_exactly() {
    let mut rng = Rng::seed_from_u64(108);
    let mut copy = pooled_lab(&mut rng);
    let mut scratch = DeviceState::new();
    for _ in 0..4 * CASES {
        let source = pooled_lab(&mut rng);
        copy.clone_from(&source);
        assert_eq!(copy, source);
        assert_eq!(reference::of(&copy), reference::of(&source));
        for (_, device) in source.iter() {
            scratch.clone_from(device);
            assert_eq!(&scratch, device);
        }
    }
}

/// Snapshots serialise exactly as the map-of-maps model did, and a JSON
/// round trip reproduces the text byte for byte.
#[test]
fn json_is_byte_identical_to_the_map_model() {
    let mut rng = Rng::seed_from_u64(109);
    for _ in 0..CASES {
        let state = pooled_lab(&mut rng);
        let json = state.to_json().to_compact();
        assert_eq!(json, reference::json(&reference::of(&state)));
        let back = LabState::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.to_json().to_compact(), json);
    }
}
