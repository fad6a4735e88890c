//! Storage-kernel probes: the `mp-storage` calls the data plane is
//! built from, timed standalone on the workload's own EDB relations so
//! that a kernel change can be told apart from a framing change.

use crate::span::Tracer;
use crate::stats::{median, ratio};
use mp_datalog::{Database, Predicate};
use mp_storage::{ops, AggFunc, Relation};
use std::hint::black_box;

const REPS: usize = 3;

/// Nanoseconds per unit of work in each kernel; 0 where the workload's
/// EDB has no relation of the shape the kernel needs.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTimes {
    pub insert_ns_per_tuple: f64,
    pub probe_ns_per_key: f64,
    pub join_ns_per_out: f64,
    pub aggregate_ns_per_row: f64,
    pub antijoin_ns_per_row: f64,
}

/// Median over [`REPS`] runs of `f`'s span duration, divided by the
/// units of work `f` reports having done.
fn ns_per_unit<E: std::fmt::Debug>(
    tr: &mut Tracer,
    name: &'static str,
    mut f: impl FnMut() -> Result<usize, E>,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let before = tr.spans().len();
        let units = tr
            .span(name, &mut f)
            .map_err(|e| format!("{name}: {e:?}"))?;
        samples.push(ratio(tr.spans()[before].duration_ns() as f64, units as f64));
    }
    Ok(median(&samples))
}

/// The largest binary relation of the loaded EDBs: `edge` on the
/// transitive-closure workloads, `up`/`down` on same-generation, `move`
/// on the stratified mix.
fn largest_binary(dbs: &[Database]) -> Option<&Relation> {
    dbs.iter()
        .flat_map(Database::iter)
        .map(|(_, r)| r)
        .filter(|r| r.arity() == 2 && !r.is_empty())
        .max_by_key(|r| r.len())
}

fn named<'a>(dbs: &'a [Database], pred: &str, arity: usize) -> Option<&'a Relation> {
    dbs.iter()
        .find_map(|db| db.relation(&Predicate::new(pred)))
        .filter(|r| r.arity() == arity)
}

/// `dbs` are the EDBs as the engine sees them (inline facts loaded).
pub fn probe(dbs: &[Database], tr: &mut Tracer) -> Result<KernelTimes, String> {
    let mut times = KernelTimes::default();

    if let Some(rel) = largest_binary(dbs) {
        // Writes: every row once fresh, then once more as a duplicate —
        // the two cases dedup-on-insert has to be fast at.
        times.insert_ns_per_tuple = ns_per_unit(tr, "storage.insert", || {
            let mut out = Relation::new(2);
            for _ in 0..2 {
                for t in rel.iter() {
                    black_box(out.insert(t.clone())?);
                }
            }
            Ok::<_, mp_storage::StorageError>(2 * rel.len())
        })?;

        let mut indexed = rel.clone();
        indexed
            .ensure_index(&[0])
            .map_err(|e| format!("storage.probe: {e:?}"))?;
        let keys = indexed.distinct_column(0);
        times.probe_ns_per_key = ns_per_unit(tr, "storage.probe", || {
            for k in &keys {
                black_box(indexed.probe(&[0], std::slice::from_ref(k)));
            }
            Ok::<_, ()>(keys.len())
        })?;

        times.join_ns_per_out = ns_per_unit(tr, "storage.join", || {
            ops::join(rel, rel, &[(1, 0)]).map(|out| black_box(out).len())
        })?;
    }

    if let Some(shares) = named(dbs, "shares", 3) {
        times.aggregate_ns_per_row = ns_per_unit(tr, "storage.aggregate", || {
            ops::aggregate(shares, &[0, 1], 2, AggFunc::Sum).map(|out| {
                black_box(out);
                shares.len()
            })
        })?;
    }

    if let (Some(pos), Some(moves)) = (named(dbs, "pos", 1), named(dbs, "move", 2)) {
        times.antijoin_ns_per_row = ns_per_unit(tr, "storage.antijoin", || {
            ops::antijoin(pos, moves, &[(0, 0)]).map(|out| {
                black_box(out);
                pos.len()
            })
        })?;
    }
    Ok(times)
}
