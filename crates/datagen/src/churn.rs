//! Deterministic churn scripts: a mutation workload over a base corpus.
//!
//! Delta-checkpoint tests and smokes need a reproducible stream of
//! inserts and removes *against a known base* — inserts that look like
//! real drift (near-duplicate copies of live strings, the same model the
//! corpus generators use for planted duplicates) and removes that only
//! ever target ids that are live at that point in the script.
//!
//! [`churn_ops`] generates the op list; [`churn_script`] renders it in
//! the repl's command syntax (`:add <string>` / `:rm <id>`), so a script
//! file replays directly:
//!
//! ```text
//! datagen --kind author --n 20000 --out base.txt --churn 1000 --churn-out churn.txt
//! simjoin index base.txt --tau-max 2 --save base.snap
//! simjoin repl --load base.snap --save-delta < churn.txt
//! ```
//!
//! Everything is deterministic in the seed, and id assignment follows
//! the engine's contract (dense ids from the universe size, tombstones
//! never reused), so the same script always produces the same index.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mutate::mutate;

/// One churn step against the evolving index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// Insert this string; the engine will assign the next dense id.
    Insert(Vec<u8>),
    /// Remove this id, which is live when the script reaches this step.
    Remove(u32),
}

/// Generates `n` churn ops over `base`, deterministic in `seed`.
///
/// Roughly two thirds of the ops are inserts (mutated near-duplicate
/// copies of strings live at that point, 1–2 edits), the rest removes of
/// random live ids. The mix keeps the index growing — the workload a
/// checkpointed server actually sees. Removes are skipped (in favour of
/// inserts) if the live set would run dry.
pub fn churn_ops(base: &[Vec<u8>], n: usize, seed: u64) -> Vec<ChurnOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    // The live set, as (id, string) — base ids are 0-based line numbers,
    // inserts extend the universe densely.
    let mut live: Vec<(u32, Vec<u8>)> = base
        .iter()
        .enumerate()
        .map(|(id, s)| (id as u32, s.clone()))
        .collect();
    let mut next_id = base.len() as u32;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let remove = !live.is_empty() && rng.gen_range(0..3) == 0;
        if remove {
            let slot = rng.gen_range(0..live.len());
            let (id, _) = live.swap_remove(slot);
            ops.push(ChurnOp::Remove(id));
        } else {
            let copy = if live.is_empty() {
                // Degenerate base: churn over nothing still inserts.
                b"churn seed string".to_vec()
            } else {
                let source = &live[rng.gen_range(0..live.len())].1;
                let edits = rng.gen_range(1..=2);
                mutate(source, edits, &mut rng)
            };
            ops.push(ChurnOp::Insert(copy.clone()));
            live.push((next_id, copy));
            next_id += 1;
        }
    }
    ops
}

/// Renders churn ops as repl command lines: `:add <string>` / `:rm <id>`,
/// one per line, ready for `simjoin repl --save-delta < script`.
pub fn churn_script(ops: &[ChurnOp]) -> Vec<Vec<u8>> {
    ops.iter()
        .map(|op| match op {
            ChurnOp::Insert(s) => {
                let mut line = b":add ".to_vec();
                line.extend_from_slice(s);
                line
            }
            ChurnOp::Remove(id) => format!(":rm {id}").into_bytes(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<Vec<u8>> {
        (0..50)
            .map(|i| format!("base record number {i}").into_bytes())
            .collect()
    }

    #[test]
    fn churn_is_deterministic_in_the_seed() {
        let base = base();
        assert_eq!(churn_ops(&base, 200, 7), churn_ops(&base, 200, 7));
        assert_ne!(churn_ops(&base, 200, 7), churn_ops(&base, 200, 8));
    }

    #[test]
    fn removes_only_target_live_ids() {
        let base = base();
        let ops = churn_ops(&base, 500, 42);
        assert_eq!(ops.len(), 500);
        let mut live: Vec<u32> = (0..base.len() as u32).collect();
        let mut next_id = base.len() as u32;
        let mut inserts = 0;
        for op in &ops {
            match op {
                ChurnOp::Insert(s) => {
                    assert!(!s.is_empty());
                    live.push(next_id);
                    next_id += 1;
                    inserts += 1;
                }
                ChurnOp::Remove(id) => {
                    let slot = live
                        .iter()
                        .position(|x| x == id)
                        .expect("remove of a dead id");
                    live.swap_remove(slot);
                }
            }
        }
        // The 2:1 mix keeps the index growing.
        assert!(
            inserts > ops.len() / 2,
            "{inserts} inserts of {}",
            ops.len()
        );
    }

    #[test]
    fn script_lines_replay_the_ops() {
        let ops = vec![
            ChurnOp::Insert(b"jim gray".to_vec()),
            ChurnOp::Remove(3),
            ChurnOp::Insert(b"  leading spaces kept".to_vec()),
        ];
        let lines = churn_script(&ops);
        assert_eq!(lines[0], b":add jim gray");
        assert_eq!(lines[1], b":rm 3");
        assert_eq!(lines[2], b":add   leading spaces kept");
    }

    #[test]
    fn empty_base_still_inserts() {
        let ops = churn_ops(&[], 10, 1);
        assert!(ops.iter().any(|op| matches!(op, ChurnOp::Insert(_))));
    }
}
