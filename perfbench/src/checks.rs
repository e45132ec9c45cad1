//! Correctness checks. Each is derived from the generator's own
//! construction or from a property the method must have — never from a
//! recorded answer of the program.

use std::collections::{BTreeSet, HashMap};

use autofeat::core::{DiscoveryResult, RankedPath};
use autofeat::data::{Table, Value};
use autofeat::graph::Drg;

pub type Check = Result<(), String>;

/// Every field of an answer that must not depend on thread count, client
/// count or cache state, floats compared to the bit.
pub fn same_answer(a: &DiscoveryResult, b: &DiscoveryResult) -> bool {
    a.ranked.len() == b.ranked.len()
        && a.ranked.iter().zip(&b.ranked).all(|(x, y)| {
            x.path == y.path && x.score.to_bits() == y.score.to_bits() && x.features == y.features
        })
        && a.n_joins_evaluated == b.n_joins_evaluated
        && a.n_pruned_unjoinable == b.n_pruned_unjoinable
        && a.n_pruned_quality == b.n_pruned_quality
        && a.n_pruned_similarity == b.n_pruned_similarity
        && a.n_pruned_budget == b.n_pruned_budget
        && a.truncation == b.truncation
        && a.selected_features == b.selected_features
}

pub fn expect_same(what: &str, reference: &DiscoveryResult, got: &DiscoveryResult) -> Check {
    if same_answer(reference, got) {
        Ok(())
    } else {
        Err(format!(
            "{what}: answer differs from the single-thread reference"
        ))
    }
}

/// A request on the wide star evaluates each satellite exactly once, as a
/// one-hop path, and nothing else.
pub fn expect_one_hop_joins(result: &DiscoveryResult, n: usize) -> Check {
    if result.n_joins_evaluated != n {
        return Err(format!(
            "expected {n} joins, the request evaluated {}",
            result.n_joins_evaluated
        ));
    }
    if let Some(p) = result.ranked.iter().find(|p| p.path.len() != 1) {
        return Err(format!("ranked path of {} hops on a star", p.path.len()));
    }
    Ok(())
}

/// While `table` is out of the lake no ranked path may touch it.
pub fn expect_absent(result: &DiscoveryResult, table: &str) -> Check {
    match result.ranked.iter().find(|p| p.path.visits(table)) {
        Some(p) => Err(format!(
            "table `{table}` was removed but path {:?} uses it",
            p.path.tables()
        )),
        None => Ok(()),
    }
}

/// Re-join `feature` of `satellite` onto `base` with a plain per-key scan:
/// every base row's joined value must be one of the values the satellite
/// holds for that row's key, and null exactly when the satellite lacks the
/// key. `joined` is the program's materialized path, base rows in order.
pub fn expect_rejoin(
    base: &Table,
    satellite: &Table,
    key: &str,
    feature: &str,
    joined: &Table,
) -> Check {
    let mut by_key: HashMap<i64, Vec<u64>> = HashMap::new();
    let sk = satellite.column(key).map_err(|e| e.to_string())?;
    let sf = satellite.column(feature).map_err(|e| e.to_string())?;
    for r in 0..satellite.n_rows() {
        if let (Value::Int(k), Some(v)) = (sk.get(r), sf.get_f64(r)) {
            by_key.entry(k).or_default().push(v.to_bits());
        }
    }
    let qualified = format!("{}.{feature}", satellite.name());
    let jf = joined.column(&qualified).map_err(|e| e.to_string())?;
    let bk = base.column(key).map_err(|e| e.to_string())?;
    if joined.n_rows() != base.n_rows() {
        return Err(format!(
            "join has {} rows, base has {}",
            joined.n_rows(),
            base.n_rows()
        ));
    }
    for r in 0..base.n_rows() {
        let Value::Int(k) = bk.get(r) else {
            return Err(format!("base row {r} has no key"));
        };
        match (by_key.get(&k), jf.get_f64(r)) {
            (None, None) => {}
            (Some(vals), Some(v)) if vals.contains(&v.to_bits()) => {}
            (None, Some(v)) => return Err(format!("row {r}: key {k} is absent but joined {v}")),
            (Some(_), None) => return Err(format!("row {r}: key {k} is present but joined null")),
            (Some(_), Some(v)) => {
                return Err(format!("row {r}: joined {v} is not a value of key {k}"))
            }
        }
    }
    Ok(())
}

/// A DRG edge by table and column names, endpoints in sorted order.
pub type NamedEdge = (String, String, String, String);

fn named(ta: &str, ca: &str, tb: &str, cb: &str) -> NamedEdge {
    let (a, b) = (
        (ta.to_string(), ca.to_string()),
        (tb.to_string(), cb.to_string()),
    );
    let (a, b) = if a <= b { (a, b) } else { (b, a) };
    (a.0, a.1, b.0, b.1)
}

pub fn edge_set(drg: &Drg) -> BTreeSet<NamedEdge> {
    drg.edges()
        .iter()
        .map(|e| {
            named(
                drg.table_name(e.a),
                &e.a_column,
                drg.table_name(e.b),
                &e.b_column,
            )
        })
        .collect()
}

/// Every edge the generator planted is in the graph.
pub fn expect_planted(edges: &BTreeSet<NamedEdge>, planted: &[NamedEdge]) -> Check {
    let missing: Vec<&NamedEdge> = planted
        .iter()
        .filter(|(ta, ca, tb, cb)| !edges.contains(&named(ta, ca, tb, cb)))
        .collect();
    match missing.first() {
        None => Ok(()),
        Some(e) => Err(format!(
            "{} planted edge(s) missing from the DRG, e.g. {e:?}",
            missing.len()
        )),
    }
}

/// The DRG edge multiset with weights to the bit, by names: node ids depend
/// on insertion order, so two graphs over the same tables compare by this.
pub fn canonical_edges(drg: &Drg) -> Vec<(NamedEdge, u64)> {
    let mut out: Vec<_> = drg
        .edges()
        .iter()
        .map(|e| {
            (
                named(
                    drg.table_name(e.a),
                    &e.a_column,
                    drg.table_name(e.b),
                    &e.b_column,
                ),
                e.weight.to_bits(),
            )
        })
        .collect();
    out.sort();
    out
}

pub fn expect_same_drg(after_churn: &Drg, fresh: &Drg) -> Check {
    let (a, b) = (canonical_edges(after_churn), canonical_edges(fresh));
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "DRG after churn ({} edges) differs from a fresh build ({} edges)",
            a.len(),
            b.len()
        ))
    }
}

/// The best path selects at least one feature that, by the generator's
/// construction, carries the label signal.
pub fn expect_signal(best: Option<&RankedPath>, signal: &BTreeSet<String>) -> Check {
    let best = best.ok_or("training found no path")?;
    if best.features.iter().any(|f| signal.contains(f)) {
        Ok(())
    } else {
        Err(format!(
            "best path {:?} selects only noise: {:?}",
            best.path.tables(),
            best.features
        ))
    }
}

/// Share of the most frequent label value.
pub fn majority_rate(base: &Table, label: &str) -> f64 {
    let col = base.column(label).expect("label column");
    let mut counts: HashMap<String, usize> = HashMap::new();
    for r in 0..base.n_rows() {
        *counts.entry(format!("{:?}", col.get(r))).or_default() += 1;
    }
    *counts.values().max().unwrap_or(&0) as f64 / base.n_rows().max(1) as f64
}

pub fn expect_beats_majority(accuracy: f64, majority: f64) -> Check {
    if accuracy > majority {
        Ok(())
    } else {
        Err(format!(
            "accuracy {accuracy:.4} does not beat the majority rate {majority:.4}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use autofeat::core::{materialize_path, AutoFeat, AutoFeatConfig, SearchContext};
    use autofeat::data::Column;
    use autofeat::discovery::SchemaMatcher;

    fn star_ctx() -> (gen::LakeInput, SearchContext) {
        let input = gen::wide_star(3);
        let ctx = SearchContext::from_discovery(
            input.tables.clone(),
            &SchemaMatcher::paper_default(),
            input.base.clone(),
            input.label.clone(),
        )
        .unwrap();
        (input, ctx)
    }

    #[test]
    fn rejoin_accepts_the_program_join_and_rejects_a_wrong_value() {
        let (input, ctx) = star_ctx();
        let result = AutoFeat::new(AutoFeatConfig::paper().with_threads(1))
            .discover(&ctx)
            .unwrap();
        expect_one_hop_joins(&result, gen::STAR_SATELLITES).unwrap();
        let top = &result.ranked[0];
        let hop = &top.path.hops()[0];
        let sat = input.table(&hop.to_table);
        let feature = sat
            .column_names()
            .into_iter()
            .find(|c| *c != hop.to_column)
            .unwrap()
            .to_string();
        let joined = materialize_path(&ctx, ctx.base_table(), &top.path, 42).unwrap();
        let base = ctx.base_table();
        expect_rejoin(base, sat, &hop.to_column, &feature, &joined).unwrap();

        let qualified = format!("{}.{feature}", sat.name());
        let col = joined.column(&qualified).unwrap();
        let row = (0..col.len()).find(|&r| col.get_f64(r).is_some()).unwrap();
        let mut vals: Vec<Option<f64>> = (0..col.len()).map(|r| col.get_f64(r)).collect();
        vals[row] = vals[row].map(|v| v + 0.5);
        let corrupted = joined
            .replace_column(&qualified, Column::from_floats(vals))
            .unwrap();
        assert!(expect_rejoin(base, sat, &hop.to_column, &feature, &corrupted).is_err());

        let mut vals: Vec<Option<f64>> = (0..col.len()).map(|r| col.get_f64(r)).collect();
        vals[row] = None;
        let nulled = joined
            .replace_column(&qualified, Column::from_floats(vals))
            .unwrap();
        assert!(expect_rejoin(base, sat, &hop.to_column, &feature, &nulled).is_err());
    }

    #[test]
    fn planted_edge_check_catches_a_dropped_edge() {
        let input = gen::churn_lake(5);
        let fillers: Vec<_> = input
            .tables
            .iter()
            .filter(|t| t.name().starts_with("fill0"))
            .collect();
        let drg = Drg::from_discovery(&fillers, &SchemaMatcher::paper_default());
        let planted: Vec<NamedEdge> = input
            .planted_edges
            .iter()
            .filter(|(a, _, b, _)| a.starts_with("fill0") && b.starts_with("fill0"))
            .cloned()
            .collect();
        assert!(!planted.is_empty());
        let mut edges = edge_set(&drg);
        expect_planted(&edges, &planted).unwrap();
        let (ta, ca, tb, cb) = &planted[planted.len() / 2];
        assert!(edges.remove(&named(ta, ca, tb, cb)));
        assert!(expect_planted(&edges, &planted).is_err());
    }

    #[test]
    fn absent_table_and_signal_checks_see_the_path() {
        let (input, ctx) = star_ctx();
        let result = AutoFeat::new(AutoFeatConfig::paper().with_threads(1))
            .discover(&ctx)
            .unwrap();
        let top = &result.ranked[0];
        let touched = top.path.last_table().unwrap();
        assert!(expect_absent(&result, touched).is_err());
        assert!(expect_absent(&result, "no_such_table").is_ok());
        expect_signal(Some(top), &input.signal).unwrap();
        assert!(expect_signal(Some(top), &BTreeSet::new()).is_err());
    }

    #[test]
    fn majority_rate_counts_labels() {
        let t = Table::new(
            "t",
            vec![("y", Column::from_ints([Some(1), Some(1), Some(0), Some(1)]))],
        )
        .unwrap();
        assert_eq!(majority_rate(&t, "y"), 0.75);
        assert!(expect_beats_majority(0.7, 0.75).is_err());
        assert!(expect_beats_majority(0.8, 0.75).is_ok());
    }
}
