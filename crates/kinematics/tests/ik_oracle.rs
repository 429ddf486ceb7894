//! Bit-exactness oracle for the IK kernel.
//!
//! `reference` is the damped-least-squares solver as it was before the
//! kernel shared one forward-kinematics pass between the tool position and
//! the Jacobian: every Jacobian column runs two full FK passes through
//! `ArmModel::tool_position`. It lives here, with the tests, and is kept
//! verbatim so that `solve_position` can be held to it bit for bit — the
//! joint angles of an `Ok`, the residual of a `NotConverged`, and the
//! `OutOfReach` pre-check — over every preset and seeded random targets.

#![allow(clippy::needless_range_loop)] // index-paired math over fixed-size arrays

use rabit_geometry::Vec3;
use rabit_kinematics::ik::{solve_position, IkError, IkParams};
use rabit_kinematics::{presets, ArmModel, JointConfig};
use rabit_util::Rng;

mod reference {
    use super::*;

    pub fn solve_position(
        arm: &ArmModel,
        seed: &JointConfig,
        target: Vec3,
        params: &IkParams,
    ) -> Result<JointConfig, IkError> {
        if !target.is_finite() {
            return Err(IkError::InvalidTarget);
        }
        let base = arm.chain().base().translation;
        let distance = base.distance(target);
        let max_reach = arm.max_reach();
        if distance > max_reach {
            return Err(IkError::OutOfReach {
                distance,
                max_reach,
            });
        }

        let mut best: Result<JointConfig, IkError> = Err(IkError::NotConverged {
            residual: f64::INFINITY,
        });
        for restart in 0..5u32 {
            let mut start = *seed;
            if restart > 0 {
                for i in 0..6 {
                    let sign = if (i + restart as usize).is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    let mag = 0.4 * restart as f64;
                    start = start.with_angle(i, arm.limits()[i].clamp(start.angle(i) + sign * mag));
                }
            }
            match solve_from(arm, &start, target, params) {
                Ok(q) => return Ok(q),
                Err(e) => {
                    let keep = match (&best, &e) {
                        (
                            Err(IkError::NotConverged { residual: old }),
                            IkError::NotConverged { residual: new },
                        ) => new < old,
                        _ => false,
                    };
                    if keep
                        || matches!(best, Err(IkError::NotConverged { residual }) if residual.is_infinite())
                    {
                        best = Err(e);
                    }
                }
            }
        }
        best
    }

    fn solve_from(
        arm: &ArmModel,
        seed: &JointConfig,
        target: Vec3,
        params: &IkParams,
    ) -> Result<JointConfig, IkError> {
        let mut q = *seed;
        let mut best_q = q;
        let mut best_err = f64::INFINITY;

        for _ in 0..params.max_iters {
            let current = arm.tool_position(&q);
            let e = target - current;
            let err = e.norm();
            if err < best_err {
                best_err = err;
                best_q = q;
            }
            if err <= params.tolerance {
                return Ok(q);
            }

            let jac = position_jacobian(arm, &q, params.fd_step);
            let lambda = (params.damping * err / (err + 0.02)).max(1e-4);
            let dq = dls_step(&jac, e, lambda);

            let mut next = q;
            for i in 0..6 {
                let a = arm.limits()[i].clamp(q.angle(i) + dq[i]);
                next = next.with_angle(i, a);
            }
            if next.max_joint_delta(&q) < 1e-12 {
                break;
            }
            q = next;
        }

        if best_err <= params.tolerance {
            Ok(best_q)
        } else {
            Err(IkError::NotConverged { residual: best_err })
        }
    }

    /// Numeric 3×6 position Jacobian via central differences, two full FK
    /// passes per column.
    fn position_jacobian(arm: &ArmModel, q: &JointConfig, h: f64) -> [[f64; 6]; 3] {
        let mut jac = [[0.0; 6]; 3];
        for j in 0..6 {
            let qp = q.with_angle(j, q.angle(j) + h);
            let qm = q.with_angle(j, q.angle(j) - h);
            let dp = arm.tool_position(&qp);
            let dm = arm.tool_position(&qm);
            let grad = (dp - dm) / (2.0 * h);
            jac[0][j] = grad.x;
            jac[1][j] = grad.y;
            jac[2][j] = grad.z;
        }
        jac
    }

    fn dls_step(jac: &[[f64; 6]; 3], e: Vec3, damping: f64) -> [f64; 6] {
        let mut a = [[0.0f64; 3]; 3];
        for r in 0..3 {
            for c in 0..3 {
                let mut s = 0.0;
                for k in 0..6 {
                    s += jac[r][k] * jac[c][k];
                }
                a[r][c] = s;
            }
            a[r][r] += damping * damping;
        }
        let y = solve3(&a, [e.x, e.y, e.z]);
        let mut dq = [0.0; 6];
        for (j, out) in dq.iter_mut().enumerate() {
            *out = jac[0][j] * y[0] + jac[1][j] * y[1] + jac[2][j] * y[2];
        }
        dq
    }

    fn solve3(a: &[[f64; 3]; 3], b: [f64; 3]) -> [f64; 3] {
        let mut m = [[0.0f64; 4]; 3];
        for r in 0..3 {
            m[r][..3].copy_from_slice(&a[r]);
            m[r][3] = b[r];
        }
        for col in 0..3 {
            let piv = (col..3)
                .max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))
                .unwrap();
            m.swap(col, piv);
            let p = m[col][col];
            for r in 0..3 {
                if r != col && p.abs() > 0.0 {
                    let f = m[r][col] / p;
                    for c in col..4 {
                        m[r][c] -= f * m[col][c];
                    }
                }
            }
        }
        let mut x = [0.0; 3];
        for r in 0..3 {
            x[r] = if m[r][r].abs() > 0.0 {
                m[r][3] / m[r][r]
            } else {
                0.0
            };
        }
        x
    }
}

/// An IK outcome as raw bits, so equality is bitwise (and NaN-safe).
#[derive(Debug, PartialEq)]
enum Bits {
    Ok([u64; 6]),
    OutOfReach { distance: u64, max_reach: u64 },
    NotConverged { residual: u64 },
    InvalidTarget,
}

fn bits(r: Result<JointConfig, IkError>) -> Bits {
    match r {
        Ok(q) => Bits::Ok(q.angles().map(f64::to_bits)),
        Err(IkError::OutOfReach {
            distance,
            max_reach,
        }) => Bits::OutOfReach {
            distance: distance.to_bits(),
            max_reach: max_reach.to_bits(),
        },
        Err(IkError::NotConverged { residual }) => Bits::NotConverged {
            residual: residual.to_bits(),
        },
        Err(IkError::InvalidTarget) => Bits::InvalidTarget,
    }
}

fn random_config(arm: &ArmModel, rng: &mut Rng) -> JointConfig {
    let mut q = JointConfig::ZERO;
    for i in 0..6 {
        let l = arm.limits()[i];
        q = q.with_angle(i, rng.random_range(l.min..l.max));
    }
    q
}

/// A seed with a random subset of joints pinned exactly at a limit: the
/// start the clamped DLS step stalls from.
fn limit_pinned_config(arm: &ArmModel, rng: &mut Rng) -> JointConfig {
    let mut q = random_config(arm, rng);
    for i in 0..6 {
        let l = arm.limits()[i];
        match rng.random_range(0..3u32) {
            0 => q = q.with_angle(i, l.min),
            1 => q = q.with_angle(i, l.max),
            _ => {}
        }
    }
    q
}

/// A target at a random direction from the base, `fraction` of the way
/// out to the reach sphere.
fn target_at_reach_fraction(arm: &ArmModel, rng: &mut Rng, fraction: f64) -> Vec3 {
    let dir = loop {
        let v = Vec3::new(
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
        );
        if let Some(d) = v.normalized() {
            break d;
        }
    };
    arm.chain().base().translation + dir * (fraction * arm.max_reach())
}

#[derive(Default)]
struct Tally {
    ok: usize,
    not_converged: usize,
    out_of_reach: usize,
}

fn assert_same(arm: &ArmModel, seed: &JointConfig, target: Vec3, case: &str, tally: &mut Tally) {
    let params = IkParams::default();
    let got = bits(solve_position(arm, seed, target, &params));
    let want = bits(reference::solve_position(arm, seed, target, &params));
    assert_eq!(
        got,
        want,
        "{} {case}: seed {seed:?} target {target:?}",
        arm.name()
    );
    match got {
        Bits::Ok(_) => tally.ok += 1,
        Bits::NotConverged { .. } => tally.not_converged += 1,
        Bits::OutOfReach { .. } => tally.out_of_reach += 1,
        Bits::InvalidTarget => {}
    }
}

#[test]
fn solve_position_is_bitwise_the_reference_on_every_preset() {
    let mut rng = Rng::seed_from_u64(1401);
    for arm in [
        presets::ur3e(),
        presets::ur5e(),
        presets::viperx300(),
        presets::ned2(),
    ] {
        let mut tally = Tally::default();
        for _ in 0..8 {
            // Random seed, reachable target (the tool tip of another
            // random configuration).
            let seed = random_config(&arm, &mut rng);
            let target = arm.tool_position(&random_config(&arm, &mut rng));
            assert_same(&arm, &seed, target, "random config", &mut tally);

            // Home seed, reachable target near the home posture.
            let home = arm.home_configuration();
            let nudge = Vec3::new(
                rng.random_range(-0.1..0.1),
                rng.random_range(-0.1..0.1),
                rng.random_range(-0.1..0.1),
            );
            let target = arm.tool_position(&home) + nudge;
            assert_same(&arm, &home, target, "reachable", &mut tally);

            // Inside the reach sphere but past what the chain can fold
            // out to: every restart runs until it stalls or runs out.
            let fraction = rng.random_range(0.93..1.0);
            let target = target_at_reach_fraction(&arm, &mut rng, fraction);
            assert_same(&arm, &home, target, "in-sphere unreachable", &mut tally);

            // Seeds pinned at joint limits, toward reachable and beyond-reach
            // targets.
            let seed = limit_pinned_config(&arm, &mut rng);
            let target = arm.tool_position(&random_config(&arm, &mut rng));
            assert_same(&arm, &seed, target, "limit-pinned", &mut tally);
            let fraction = rng.random_range(1.0..1.3);
            let target = target_at_reach_fraction(&arm, &mut rng, fraction);
            assert_same(&arm, &seed, target, "beyond reach", &mut tally);
        }
        // The suite must reach every outcome, or it proves less than it says.
        assert!(tally.ok > 0, "{}: no converged case", arm.name());
        assert!(
            tally.not_converged > 0,
            "{}: no NotConverged case",
            arm.name()
        );
        assert!(tally.out_of_reach > 0, "{}: no OutOfReach case", arm.name());
    }
}
