//! Lab state snapshots: `S_current`, `S_expected`, `S_actual`.
//!
//! Both levels of a snapshot are vectors sorted by key: a lab is a
//! `Vec<(DeviceId, DeviceState)>` sorted by id, a device a
//! `Vec<(StateKey, Value)>` sorted by key. Lookups binary-search;
//! iteration, JSON and diffs run in key order. Comparing or overlaying
//! two snapshots is one merge walk over both, and [`Clone::clone_from`]
//! rewrites a snapshot inside the buffers it already owns, so copying
//! `S_current` into `S_expected` allocates only when the device or
//! variable set grows.

use crate::id::DeviceId;
use crate::value::{StateKey, Value};
use std::cmp::Ordering;
use std::fmt;

/// The state of a single device: a map from state variable to value.
#[derive(Debug, PartialEq, Default)]
pub struct DeviceState {
    /// Sorted by key, keys unique.
    vars: Vec<(StateKey, Value)>,
}

impl Clone for DeviceState {
    fn clone(&self) -> Self {
        DeviceState {
            vars: self.vars.clone(),
        }
    }

    /// Reuses this state's buffer.
    fn clone_from(&mut self, source: &Self) {
        self.vars.clone_from(&source.vars);
    }
}

impl DeviceState {
    /// An empty device state.
    pub fn new() -> Self {
        DeviceState::default()
    }

    /// Sets a state variable (builder style).
    pub fn with(mut self, key: StateKey, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Sets a state variable.
    pub fn set(&mut self, key: StateKey, value: impl Into<Value>) {
        let value = value.into();
        match self.find(&key) {
            Ok(i) => self.vars[i].1 = value,
            Err(i) => self.vars.insert(i, (key, value)),
        }
    }

    /// Reads a state variable.
    pub fn get(&self, key: &StateKey) -> Option<&Value> {
        self.find(key).ok().map(|i| &self.vars[i].1)
    }

    /// Convenience: reads a boolean variable.
    pub fn get_bool(&self, key: &StateKey) -> Option<bool> {
        self.get(key).and_then(Value::as_bool)
    }

    /// Convenience: reads a numeric variable.
    pub fn get_number(&self, key: &StateKey) -> Option<f64> {
        self.get(key).and_then(Value::as_number)
    }

    /// Convenience: reads a device-reference variable. Returns
    /// `Some(None)` when the variable exists but references nothing.
    pub fn get_id(&self, key: &StateKey) -> Option<Option<&DeviceId>> {
        self.get(key).and_then(Value::as_id)
    }

    /// Iterates over all `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&StateKey, &Value)> {
        self.vars.iter().map(|(k, v)| (k, v))
    }

    /// Number of state variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Returns `true` if no variables are set.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    fn find(&self, key: &StateKey) -> Result<usize, usize> {
        self.vars.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Merge-walks `reported` into this state: each reported variable
    /// overwrites (or adds) its value here. With `tol`, every reported
    /// variable present here whose value it contradicts is first pushed
    /// to `diffs` as a `(here, reported)` difference.
    fn overlay_diff(
        &mut self,
        device: &DeviceId,
        reported: &DeviceState,
        tol: Option<f64>,
        diffs: &mut Vec<StateDiff>,
    ) {
        let mut i = 0;
        for (key, actual) in &reported.vars {
            while i < self.vars.len() && self.vars[i].0 < *key {
                i += 1;
            }
            match self.vars.get_mut(i) {
                Some((k, expected)) if k == key => {
                    if let Some(tol) = tol {
                        if !expected.approx_eq(actual, tol) {
                            diffs.push(StateDiff {
                                device: device.clone(),
                                key: key.clone(),
                                left: Some(expected.clone()),
                                right: Some(actual.clone()),
                            });
                        }
                    }
                    expected.clone_from(actual);
                }
                _ => self.vars.insert(i, (key.clone(), actual.clone())),
            }
            i += 1;
        }
    }
}

impl FromIterator<(StateKey, Value)> for DeviceState {
    fn from_iter<I: IntoIterator<Item = (StateKey, Value)>>(iter: I) -> Self {
        let mut state = DeviceState::new();
        state.extend(iter);
        state
    }
}

impl Extend<(StateKey, Value)> for DeviceState {
    fn extend<I: IntoIterator<Item = (StateKey, Value)>>(&mut self, iter: I) {
        for (key, value) in iter {
            self.set(key, value);
        }
    }
}

/// A full lab snapshot: the state of every device. This is the `S` of the
/// Fig. 2 algorithm.
#[derive(Debug, PartialEq, Default)]
pub struct LabState {
    /// Sorted by id, ids unique.
    devices: Vec<(DeviceId, DeviceState)>,
}

impl Clone for LabState {
    fn clone(&self) -> Self {
        LabState {
            devices: self.devices.clone(),
        }
    }

    /// Reuses this snapshot's buffers, down to each device's variable
    /// vector: copying an unchanged-shape snapshot allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.devices.truncate(source.devices.len());
        let (shared, tail) = source.devices.split_at(self.devices.len());
        for ((id, state), (source_id, source_state)) in self.devices.iter_mut().zip(shared) {
            id.clone_from(source_id);
            state.clone_from(source_state);
        }
        self.devices.extend_from_slice(tail);
    }
}

impl LabState {
    /// An empty lab.
    pub fn new() -> Self {
        LabState::default()
    }

    /// Inserts or replaces a device's state (builder style).
    pub fn with_device(mut self, id: impl Into<DeviceId>, state: DeviceState) -> Self {
        self.insert(id, state);
        self
    }

    /// Inserts or replaces a device's state.
    pub fn insert(&mut self, id: impl Into<DeviceId>, state: DeviceState) {
        let id = id.into();
        match self.find(&id) {
            Ok(i) => self.devices[i].1 = state,
            Err(i) => self.devices.insert(i, (id, state)),
        }
    }

    /// The state of one device.
    pub fn device(&self, id: &DeviceId) -> Option<&DeviceState> {
        self.find(id).ok().map(|i| &self.devices[i].1)
    }

    /// Mutable access to one device's state (inserted empty if missing).
    pub fn device_mut(&mut self, id: &DeviceId) -> &mut DeviceState {
        let i = match self.find(id) {
            Ok(i) => i,
            Err(i) => {
                self.devices.insert(i, (id.clone(), DeviceState::new()));
                i
            }
        };
        &mut self.devices[i].1
    }

    /// Reads one variable of one device.
    pub fn get(&self, id: &DeviceId, key: &StateKey) -> Option<&Value> {
        self.device(id).and_then(|d| d.get(key))
    }

    /// Convenience: boolean variable of a device.
    pub fn get_bool(&self, id: &DeviceId, key: &StateKey) -> Option<bool> {
        self.get(id, key).and_then(Value::as_bool)
    }

    /// Convenience: numeric variable of a device.
    pub fn get_number(&self, id: &DeviceId, key: &StateKey) -> Option<f64> {
        self.get(id, key).and_then(Value::as_number)
    }

    /// Convenience: device-reference variable of a device.
    pub fn get_id(&self, id: &DeviceId, key: &StateKey) -> Option<Option<&DeviceId>> {
        self.get(id, key).and_then(Value::as_id)
    }

    /// Sets one variable of one device.
    pub fn set(&mut self, id: &DeviceId, key: StateKey, value: impl Into<Value>) {
        self.device_mut(id).set(key, value);
    }

    /// All device ids in the snapshot, in order.
    pub fn device_ids(&self) -> impl Iterator<Item = &DeviceId> {
        self.devices.iter().map(|(id, _)| id)
    }

    /// Iterates over `(device, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&DeviceId, &DeviceState)> {
        self.devices.iter().map(|(id, state)| (id, state))
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` if the snapshot has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    fn find(&self, id: &DeviceId) -> Result<usize, usize> {
        self.devices.binary_search_by(|(d, _)| d.cmp(id))
    }

    /// Removes every device, keeping the buffer for a refill (see
    /// `Lab::fetch_state_into` in `rabit-core`).
    pub fn clear(&mut self) {
        self.devices.clear();
    }

    /// Overlays `reported` on top of this snapshot: every variable a
    /// device actually reports overwrites the believed value; believed
    /// variables the devices cannot sense (vial contents, containment,
    /// held objects) are retained. This is how `S_current` is rolled
    /// forward on Line 16 of the Fig. 2 algorithm in a lab where not
    /// every state variable has a sensor.
    pub fn overlay(&mut self, reported: &LabState) {
        self.overlay_diff(reported, None);
    }

    /// [`LabState::diff_reported`] and [`LabState::overlay`] fused into
    /// one merge walk: overlays `reported` and, with `tol`, returns the
    /// differences the snapshot had against it *before* the overlay (an
    /// empty vector without `tol`). This is Fig. 2, Lines 13-16 as the
    /// engine runs them on `S_expected`.
    pub fn overlay_diff(&mut self, reported: &LabState, tol: Option<f64>) -> Vec<StateDiff> {
        let mut diffs = Vec::new();
        let mut i = 0;
        for (device, actual) in &reported.devices {
            while i < self.devices.len() && self.devices[i].0 < *device {
                i += 1;
            }
            match self.devices.get_mut(i) {
                Some((id, expected)) if id == device => {
                    expected.overlay_diff(device, actual, tol, &mut diffs);
                }
                // Nothing believed about this device yet: nothing to
                // contradict.
                _ => self.devices.insert(i, (device.clone(), actual.clone())),
            }
            i += 1;
        }
        diffs
    }

    /// Compares expected (`self`) against the *reported* snapshot,
    /// returning a difference for every variable the devices actually
    /// report that contradicts the expectation. Believed-only variables
    /// (present in `self` but absent from `reported`) are NOT mismatches:
    /// an unsensed variable can never contradict anything — the blind
    /// spot behind the paper's undetected Bug-C class.
    pub fn diff_reported(&self, reported: &LabState, tol: f64) -> Vec<StateDiff> {
        let mut out = Vec::new();
        for (device, expected, actual) in merge(&self.devices, &reported.devices) {
            let (Some(expected), Some(actual)) = (expected, actual) else {
                continue;
            };
            for (key, e, a) in merge(&expected.vars, &actual.vars) {
                if let (Some(e), Some(a)) = (e, a) {
                    if !e.approx_eq(a, tol) {
                        out.push(StateDiff {
                            device: device.clone(),
                            key: key.clone(),
                            left: Some(e.clone()),
                            right: Some(a.clone()),
                        });
                    }
                }
            }
        }
        out
    }

    /// Compares two snapshots variable-by-variable, returning every
    /// difference. An empty diff means `S_actual = S_expected`; a
    /// non-empty diff is what triggers the "Device malfunction!" alert
    /// (Fig. 2, Lines 14-15).
    ///
    /// Numeric and position values compare within `tol`; variables present
    /// on only one side are reported with `None` for the missing side.
    pub fn diff(&self, other: &LabState, tol: f64) -> Vec<StateDiff> {
        let mut out = Vec::new();
        for (device, a, b) in merge(&self.devices, &other.devices) {
            let a = a.map_or(&[][..], |d| &d.vars[..]);
            let b = b.map_or(&[][..], |d| &d.vars[..]);
            for (key, va, vb) in merge(a, b) {
                let equal = match (va, vb) {
                    (Some(x), Some(y)) => x.approx_eq(y, tol),
                    _ => false,
                };
                if !equal {
                    out.push(StateDiff {
                        device: device.clone(),
                        key: key.clone(),
                        left: va.cloned(),
                        right: vb.cloned(),
                    });
                }
            }
        }
        out
    }
}

/// Walks two key-sorted slices in one pass, yielding every key of either
/// side in order, with its value on each side.
fn merge<'a, K: Ord, A, B>(
    left: &'a [(K, A)],
    right: &'a [(K, B)],
) -> impl Iterator<Item = (&'a K, Option<&'a A>, Option<&'a B>)> {
    let (mut l, mut r) = (left.iter().peekable(), right.iter().peekable());
    std::iter::from_fn(move || {
        let order = match (l.peek(), r.peek()) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((a, _)), Some((b, _))) => a.cmp(b),
        };
        Some(match order {
            Ordering::Less => l.next().map(|(k, a)| (k, Some(a), None))?,
            Ordering::Greater => r.next().map(|(k, b)| (k, None, Some(b)))?,
            Ordering::Equal => {
                let (k, a) = l.next()?;
                let (_, b) = r.next()?;
                (k, Some(a), Some(b))
            }
        })
    })
}

impl FromIterator<(DeviceId, DeviceState)> for LabState {
    fn from_iter<I: IntoIterator<Item = (DeviceId, DeviceState)>>(iter: I) -> Self {
        let mut lab = LabState::new();
        for (id, state) in iter {
            lab.insert(id, state);
        }
        lab
    }
}

impl rabit_util::ToJson for DeviceState {
    fn to_json(&self) -> rabit_util::Json {
        rabit_util::Json::Obj(
            self.vars
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

impl rabit_util::FromJson for DeviceState {
    fn from_json(json: &rabit_util::Json) -> Result<Self, rabit_util::JsonError> {
        let pairs = json.as_obj().ok_or_else(|| {
            rabit_util::JsonError::decode(format!("expected device state object, got {json}"))
        })?;
        let mut state = DeviceState::new();
        for (k, v) in pairs {
            let key: StateKey = k.parse().expect("StateKey parsing is infallible");
            state.set(key, Value::from_json(v)?);
        }
        Ok(state)
    }
}

impl rabit_util::ToJson for LabState {
    fn to_json(&self) -> rabit_util::Json {
        rabit_util::Json::Obj(
            self.devices
                .iter()
                .map(|(id, d)| (id.to_string(), d.to_json()))
                .collect(),
        )
    }
}

impl rabit_util::FromJson for LabState {
    fn from_json(json: &rabit_util::Json) -> Result<Self, rabit_util::JsonError> {
        let pairs = json.as_obj().ok_or_else(|| {
            rabit_util::JsonError::decode(format!("expected lab state object, got {json}"))
        })?;
        let mut lab = LabState::new();
        for (id, d) in pairs {
            lab.insert(DeviceId::new(id.clone()), DeviceState::from_json(d)?);
        }
        Ok(lab)
    }
}

/// One differing state variable between two lab snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDiff {
    /// The device whose variable differs.
    pub device: DeviceId,
    /// The differing variable.
    pub key: StateKey,
    /// Value on the left-hand snapshot (`None` if absent).
    pub left: Option<Value>,
    /// Value on the right-hand snapshot (`None` if absent).
    pub right: Option<Value>,
}

impl fmt::Display for StateDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_opt = |v: &Option<Value>| match v {
            Some(v) => v.to_string(),
            None => "<absent>".to_string(),
        };
        write!(
            f,
            "{}.{}: {} vs {}",
            self.device,
            self.key,
            fmt_opt(&self.left),
            fmt_opt(&self.right)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn door_state(open: bool) -> DeviceState {
        DeviceState::new().with(StateKey::DoorOpen, open)
    }

    #[test]
    fn device_state_roundtrip() {
        let mut s = DeviceState::new();
        assert!(s.is_empty());
        s.set(StateKey::DoorOpen, true);
        s.set(StateKey::ActionValue, 25.0);
        s.set(StateKey::Holding, Some(DeviceId::new("vial")));
        assert_eq!(s.len(), 3);
        assert_eq!(s.get_bool(&StateKey::DoorOpen), Some(true));
        assert_eq!(s.get_number(&StateKey::ActionValue), Some(25.0));
        assert_eq!(
            s.get_id(&StateKey::Holding).unwrap().unwrap().as_str(),
            "vial"
        );
        assert_eq!(s.get(&StateKey::RedDotNorth), None);
        // Wrong-type convenience reads return None.
        assert_eq!(s.get_bool(&StateKey::ActionValue), None);
    }

    #[test]
    fn lab_state_accessors() {
        let mut lab = LabState::new();
        assert!(lab.is_empty());
        lab.insert(
            "hotplate",
            door_state(false).with(StateKey::ActionValue, 25.0),
        );
        lab.insert("doser", door_state(true));
        assert_eq!(lab.len(), 2);
        let hp = DeviceId::new("hotplate");
        assert_eq!(lab.get_bool(&hp, &StateKey::DoorOpen), Some(false));
        assert_eq!(lab.get_number(&hp, &StateKey::ActionValue), Some(25.0));
        assert_eq!(lab.device_ids().count(), 2);
        lab.set(&hp, StateKey::ActionValue, 60.0);
        assert_eq!(lab.get_number(&hp, &StateKey::ActionValue), Some(60.0));
    }

    #[test]
    fn identical_states_have_empty_diff() {
        let lab = LabState::new().with_device("d", door_state(true));
        assert!(lab.diff(&lab.clone(), 0.0).is_empty());
    }

    #[test]
    fn diff_detects_changed_value() {
        let a = LabState::new().with_device("doser", door_state(true));
        let b = LabState::new().with_device("doser", door_state(false));
        let d = a.diff(&b, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].device.as_str(), "doser");
        assert_eq!(d[0].key, StateKey::DoorOpen);
        assert_eq!(d[0].left, Some(Value::Bool(true)));
        assert_eq!(d[0].right, Some(Value::Bool(false)));
        assert!(d[0].to_string().contains("doser.deviceDoorStatus"));
    }

    #[test]
    fn diff_detects_missing_device_and_variable() {
        let a = LabState::new().with_device("doser", door_state(true));
        let b = LabState::new();
        let d = a.diff(&b, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].right, None);
        // Variable missing on one side only.
        let c = LabState::new().with_device(
            "doser",
            door_state(true).with(StateKey::ActionActive, false),
        );
        let d = a.diff(&c, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].key, StateKey::ActionActive);
        assert_eq!(d[0].left, None);
    }

    #[test]
    fn diff_tolerates_numeric_jitter() {
        let a =
            LabState::new().with_device("hp", DeviceState::new().with(StateKey::ActionValue, 60.0));
        let b = LabState::new()
            .with_device("hp", DeviceState::new().with(StateKey::ActionValue, 60.004));
        assert!(a.diff(&b, 0.01).is_empty());
        assert_eq!(a.diff(&b, 0.001).len(), 1);
    }

    #[test]
    fn diff_is_antisymmetric_in_sides() {
        let a = LabState::new().with_device("d", door_state(true));
        let b = LabState::new().with_device("d", door_state(false));
        let ab = a.diff(&b, 0.0);
        let ba = b.diff(&a, 0.0);
        assert_eq!(ab.len(), ba.len());
        assert_eq!(ab[0].left, ba[0].right);
        assert_eq!(ab[0].right, ba[0].left);
    }

    #[test]
    fn collect_from_iterators() {
        let ds: DeviceState = vec![(StateKey::DoorOpen, Value::Bool(true))]
            .into_iter()
            .collect();
        assert_eq!(ds.len(), 1);
        let lab: LabState = vec![(DeviceId::new("x"), ds)].into_iter().collect();
        assert_eq!(lab.len(), 1);
        let mut ds2 = DeviceState::new();
        ds2.extend(vec![(StateKey::ActionActive, Value::Bool(false))]);
        assert_eq!(ds2.len(), 1);
    }
}
