//! The `Replacer` contract, pinned once and run against *every* policy.
//!
//! A seeded fuzz loop drives each policy through random interleavings of
//! admit / touch / remove / pick_victim while a shadow model tracks what
//! the policy must agree on:
//!
//! * a victim is always a currently tracked, previously admitted key, and
//!   is untracked afterwards;
//! * touch after evict/remove is a no-op (len unchanged);
//! * remove is idempotent;
//! * `len` equals the model's resident count;
//! * draining an evicting policy empties it.

use std::collections::HashSet;

use dpc_policy::{ReplacePolicy, Replacer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const KEYS: u64 = 64;

/// Shadow model: the resident set the policy must agree with.
#[derive(Default)]
struct Model {
    resident: HashSet<u64>,
    admitted_ever: HashSet<u64>,
}

fn take_victim(policy: ReplacePolicy, model: &mut Model, victim: u64, step: usize) {
    assert!(
        model.admitted_ever.contains(&victim),
        "{policy:?} step {step}: victim {victim} was never admitted"
    );
    assert!(
        model.resident.remove(&victim),
        "{policy:?} step {step}: victim {victim} was not resident"
    );
}

#[test]
fn every_policy_honours_the_replacer_contract() {
    for policy in ReplacePolicy::ALL {
        let mut rng = StdRng::seed_from_u64(0xC0_47AC7 ^ policy.name().len() as u64);
        for case in 0..24 {
            let mut r: Box<dyn Replacer<u64>> = policy.build();
            let mut model = Model::default();
            let steps = rng.random_range(10..400usize);
            for step in 0..steps {
                let key = rng.random_range(0..KEYS);
                match rng.random_range(0..100u32) {
                    // Admit (possibly re-admit) a key.
                    0..=39 => {
                        r.admit(key);
                        model.resident.insert(key);
                        model.admitted_ever.insert(key);
                    }
                    // Touch: resident or not, never changes membership.
                    40..=69 => {
                        r.touch(&key);
                    }
                    // Remove, sometimes twice (idempotence).
                    70..=84 => {
                        r.remove(&key);
                        model.resident.remove(&key);
                        if rng.random_bool(0.3) {
                            r.remove(&key);
                        }
                    }
                    // Eviction.
                    _ => {
                        if let Some(victim) = r.pick_victim() {
                            take_victim(policy, &mut model, victim, step);
                            // Touching the evicted key must change nothing.
                            let len = r.len();
                            r.touch(&victim);
                            assert_eq!(
                                r.len(),
                                len,
                                "{policy:?} step {step}: touch-after-evict moved state"
                            );
                        } else {
                            assert!(
                                policy == ReplacePolicy::None || model.resident.is_empty(),
                                "{policy:?} step {step}: no victim while {} resident",
                                model.resident.len()
                            );
                        }
                    }
                }
                assert_eq!(
                    r.len(),
                    model.resident.len(),
                    "{policy:?} step {step}: len drift"
                );
            }
            // Drain: every tracked key must come out exactly once.
            if policy != ReplacePolicy::None {
                while let Some(victim) = r.pick_victim() {
                    take_victim(policy, &mut model, victim, usize::MAX);
                }
                assert!(
                    model.resident.is_empty(),
                    "{policy:?} case {case}: drain left residents"
                );
                assert_eq!(r.len(), 0);
            }
        }
    }
}

#[test]
fn touch_and_remove_of_never_admitted_keys_are_noops() {
    for policy in ReplacePolicy::ALL {
        let mut r: Box<dyn Replacer<u64>> = policy.build();
        r.touch(&7);
        r.remove(&7);
        assert_eq!(r.len(), 0, "{policy:?}");
        assert_eq!(r.pick_victim(), None, "{policy:?}");
    }
}

#[test]
fn evict_never_returns_a_never_inserted_key() {
    // Focused version of the fuzz invariant: a cache of 8 over 32 keys,
    // every victim checked against what was admitted.
    for policy in ReplacePolicy::ALL {
        let mut r: Box<dyn Replacer<u64>> = policy.build();
        let mut admitted = HashSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..500u64 {
            let key = i % 32;
            r.admit(key);
            admitted.insert(key);
            if rng.random_bool(0.5) {
                r.touch(&rng.random_range(0..32u64));
            }
            if r.len() > 8 {
                if let Some(v) = r.pick_victim() {
                    assert!(admitted.contains(&v), "{policy:?}: foreign victim {v}");
                }
            }
        }
    }
}
