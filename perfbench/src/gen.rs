//! Input generators. Every table is a pure function of the workload seed;
//! nothing here is timed.
//!
//! The two lakes differ in what a request spends its time on:
//!
//! * [`wide_star`] — one base of 2,000 rows and 48 satellites of 12,000
//!   rows (6 rows per key). Each satellite joins the base on its own key
//!   column, in a key domain no other table touches, so discovery finds
//!   exactly the 48 planted star edges and a request is 48 one-hop joins.
//! * [`churn_lake`] — the `school` Table II lake in the data-lake setting
//!   plus 150 filler tables in families of five (shared key name,
//!   overlapping key domains, as in the `drg_scale` bench). Fillers live in
//!   key and value domains the school tables never touch, so they cost
//!   profiling, matching and mutation but never appear in an answer.

use std::collections::{BTreeSet, HashMap};

use autofeat::data::{Column, Table};
use autofeat::datagen::registry::dataset;
use autofeat::datagen::splitter::split;
use autofeat::datagen::{corrupt_to_lake, LakeConfig, SnowflakeConfig};

/// Deterministic 64-bit generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(1e-12);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Two-word column and key names: distinct words keep pairwise name
/// similarity of unrelated columns below the matcher's candidate gate.
const WORDS: [&str; 40] = [
    "orbit", "plasma", "krypton", "meadow", "glacier", "ember", "tundra", "quartz", "viola",
    "zephyr", "anchor", "bramble", "cinder", "dynamo", "eagle", "falcon", "garnet", "harbor",
    "ingot", "jigsaw", "kelp", "lantern", "mosaic", "nectar", "onyx", "prism", "quiver", "ridge",
    "sable", "thicket", "umber", "vortex", "walnut", "xenon", "yarrow", "zeal", "basalt", "cobalt",
    "drift", "fjord",
];

fn two_words(i: usize, salt: usize) -> String {
    format!(
        "{}{}",
        WORDS[i % WORDS.len()],
        WORDS[(i / WORDS.len() + i * 7 + salt) % WORDS.len()]
    )
}

/// A generated lake plus everything the benchmark knows about it
/// independently of the program: the edges it planted and the features
/// that carry the label signal.
#[derive(Debug, Clone)]
pub struct LakeInput {
    /// Short name for reports (`star`, `school`, `credit`, …).
    pub name: String,
    pub tables: Vec<Table>,
    pub base: String,
    pub label: String,
    /// Edges the generator guarantees, as `(table, column, table, column)`.
    pub planted_edges: Vec<(String, String, String, String)>,
    /// Qualified `table.column` names that carry label signal.
    pub signal: BTreeSet<String>,
    /// Tables the churn phase removes and adds back, in rotation order,
    /// each tagged with the class its latencies are reported under.
    pub churn: Vec<(String, &'static str)>,
    /// Joins every request must evaluate when the lake is a star of
    /// one-hop paths.
    pub one_hop_joins: Option<usize>,
}

impl LakeInput {
    pub fn table(&self, name: &str) -> &Table {
        self.tables
            .iter()
            .find(|t| t.name() == name)
            .expect("generated table exists")
    }
}

pub const STAR_BASE_ROWS: usize = 2_000;
pub const STAR_SATELLITES: usize = 48;
pub const STAR_DUP: usize = 6;
/// Satellites whose feature carries the label (the rest are noise).
const STAR_INFORMATIVE: usize = 4;
/// Share of base keys a satellite lacks (their joined value must be null).
const STAR_MISSING: f64 = 0.05;

fn star_key_name(j: usize) -> String {
    format!("{}_id", two_words(j, 3))
}

/// The wide star: base `star` with one key column per satellite, a noise
/// feature and a binary label; satellite `sat{j}` holds 6 rows per key for
/// 95% of the base keys plus keys the base lacks, and one float feature.
pub fn wide_star(seed: u64) -> LakeInput {
    let mut rng = Rng::new(seed ^ 0x57a2);
    let n = STAR_BASE_ROWS;
    let labels: Vec<i64> = (0..n).map(|_| (rng.unit() < 0.5) as i64).collect();
    let mut base_cols: Vec<(String, Column)> = Vec::new();
    let mut tables = Vec::new();
    let mut planted = Vec::new();
    let mut signal = BTreeSet::new();
    for j in 0..STAR_SATELLITES {
        let key_name = star_key_name(j);
        let domain = (j as i64 + 1) * 100_000_000;
        let mut keys: Vec<i64> = (0..n as i64).map(|i| domain + i * 3).collect();
        rng.shuffle(&mut keys);
        base_cols.push((
            key_name.clone(),
            Column::from_ints(keys.iter().map(|&k| Some(k))),
        ));

        let carries = j < STAR_INFORMATIVE;
        let mut sat_keys = Vec::with_capacity(n * STAR_DUP);
        let mut vals = Vec::with_capacity(n * STAR_DUP);
        let offset = (j as f64 + 1.0) * 1_000.0;
        for (i, &k) in keys.iter().enumerate() {
            // A missing key is replaced by one outside the base domain, so
            // every satellite keeps exactly n * STAR_DUP rows.
            let present = rng.unit() >= STAR_MISSING;
            let key = if present {
                k
            } else {
                domain + 1 + 3 * i as i64
            };
            let centre = if carries { labels[i] as f64 * 1.5 } else { 0.0 };
            for _ in 0..STAR_DUP {
                sat_keys.push(Some(key));
                vals.push(Some(offset + centre + rng.normal()));
            }
        }
        let sat = format!("sat{j:02}");
        let feat = format!("{}_val", two_words(j, 17));
        if carries {
            signal.insert(format!("{sat}.{feat}"));
        }
        planted.push((
            "star".to_string(),
            key_name.clone(),
            sat.clone(),
            key_name.clone(),
        ));
        tables.push(
            Table::new(
                sat,
                vec![
                    (key_name.as_str(), Column::from_ints(sat_keys)),
                    (feat.as_str(), Column::from_floats(vals)),
                ],
            )
            .expect("satellite builds"),
        );
    }
    base_cols.push((
        "noise".into(),
        Column::from_floats((0..n).map(|_| Some(rng.normal()))),
    ));
    base_cols.push((
        "target".into(),
        Column::from_ints(labels.iter().map(|&l| Some(l))),
    ));
    let named: Vec<(&str, Column)> = base_cols
        .iter()
        .map(|(n, c)| (n.as_str(), c.clone()))
        .collect();
    tables.insert(0, Table::new("star", named).expect("base builds"));
    let churn = (0..STAR_SATELLITES)
        .step_by(4)
        .map(|j| (format!("sat{j:02}"), "satellite"))
        .collect();
    LakeInput {
        name: "star".into(),
        tables,
        base: "star".into(),
        label: "target".into(),
        planted_edges: planted,
        signal,
        churn,
        one_hop_joins: Some(STAR_SATELLITES),
    }
}

pub const FILLER_TABLES: usize = 150;
const FILLER_ROWS: usize = 400;
const FILLER_COLS: usize = 5;
const FAMILY: usize = 5;

/// Filler table `t`: a key shared by name with its family, shifted by a
/// quarter of the rows per member so members up to three apart overlap by
/// at least a quarter of their keys, plus float features in a domain no
/// other table touches.
fn filler_table(t: usize, rng: &mut Rng) -> Table {
    let fam = t / FAMILY;
    let key_name = format!("key_{}", WORDS[fam % WORDS.len()]);
    let start =
        5_000_000_000 + fam as i64 * 1_000_000 + (t % FAMILY) as i64 * (FILLER_ROWS as i64 / 4);
    let mut keys: Vec<i64> = (start..start + FILLER_ROWS as i64).collect();
    rng.shuffle(&mut keys);
    let mut cols = vec![(key_name, Column::from_ints(keys.into_iter().map(Some)))];
    for j in 1..FILLER_COLS {
        let name = format!(
            "{}_{}",
            WORDS[(t * 7 + j * 3) % WORDS.len()],
            WORDS[(t * 11 + j * 5 + 13) % WORDS.len()]
        );
        let lo = 1e7 + (t * 10_000 + j * 500) as f64;
        cols.push((
            name,
            Column::from_floats((0..FILLER_ROWS).map(|_| Some(lo + 400.0 * rng.unit()))),
        ));
    }
    let named: Vec<(&str, Column)> = cols.iter().map(|(n, c)| (n.as_str(), c.clone())).collect();
    Table::new(format!("fill{t:03}"), named).expect("filler builds")
}

/// Family edges the filler layout guarantees: members at most three apart
/// share at least a quarter of their keys under the same key name.
fn filler_edges(n: usize) -> Vec<(String, String, String, String)> {
    let mut out = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            if a / FAMILY == b / FAMILY && b - a <= 3 {
                let key = format!("key_{}", WORDS[(a / FAMILY) % WORDS.len()]);
                out.push((
                    format!("fill{a:03}"),
                    key.clone(),
                    format!("fill{b:03}"),
                    key,
                ));
            }
        }
    }
    out
}

/// One Table II dataset in the data-lake setting, with its ground truth.
///
/// Only the values follow the benchmark seed: the ground-truth generator is
/// reseeded, while the split into tables and the planted decoys keep the
/// registry's seeds and settings (as `DatasetSpec::build_lake` uses them).
/// Every seed therefore gives the same tables, columns, keys and join
/// structure, so a request does the same work on every seed.
fn table2_lake(name: &str, seed: u64) -> LakeInput {
    let spec = dataset(name).expect("registry dataset");
    let mut values = spec.clone();
    values.seed = spec.seed.wrapping_mul(1_000_003).wrapping_add(seed);
    let gt = values.build_ground_truth();
    let sf = split(
        &gt,
        &SnowflakeConfig {
            n_satellites: spec.n_satellites,
            max_branching: spec.max_branching,
            base_features: 2,
            deep_signal: true,
            duplicate_frac: 0.05,
            missing_key_frac: 0.03,
            feature_null_frac: 0.0,
            seed: spec.seed ^ 0x5f0f,
        },
    );
    let lake = corrupt_to_lake(
        &sf,
        &LakeConfig {
            n_decoys: (spec.n_satellites / 3).max(2),
            decoy_overlap: 0.8,
            seed: spec.seed ^ 0xacc5,
        },
    );
    let placement: &HashMap<String, String> = &sf.placement;
    // Redundant and categorical features are functions of an informative
    // one (a rescaled copy plus 0.1σ noise, or its binned value), so they
    // carry the same label signal; only the noise features carry none.
    let signal = gt
        .informative
        .iter()
        .chain(&gt.redundant)
        .chain(&gt.categorical)
        .filter_map(|f| placement.get(f).map(|t| format!("{t}.{f}")))
        .collect();
    let churn = sf
        .satellites
        .iter()
        .map(|t| (t.name().to_string(), "satellite"))
        .collect();
    LakeInput {
        name: name.to_string(),
        tables: lake.tables,
        base: lake.base_name,
        label: lake.label,
        planted_edges: Vec::new(),
        signal,
        churn,
        one_hop_joins: None,
    }
}

/// The `school` lake plus 150 fillers. Churn alternates between fillers
/// (mutation cost only) and school satellites (the answer changes and join
/// indexes are rebuilt).
pub fn churn_lake(seed: u64) -> LakeInput {
    let mut lake = table2_lake("school", seed);
    let mut rng = Rng::new(seed ^ 0xf111);
    lake.tables
        .extend((0..FILLER_TABLES).map(|t| filler_table(t, &mut rng)));
    lake.planted_edges = filler_edges(FILLER_TABLES);
    let sats: Vec<String> = lake.churn.iter().map(|(t, _)| t.clone()).collect();
    let fillers = (0..FILLER_TABLES)
        .step_by(FILLER_TABLES / sats.len().max(1))
        .map(|t| format!("fill{t:03}"));
    lake.churn = fillers
        .zip(sats)
        .flat_map(|(f, s)| [(f, "filler"), (s, "satellite")])
        .collect();
    lake.name = "school+fillers".into();
    lake
}

/// The workloads [`workload_lakes`] knows.
pub const WORKLOADS: [&str; 2] = ["wide_serve", "lake_churn"];

/// A workload's lakes.
pub fn workload_lakes(workload: &str, seed: u64) -> Option<Vec<LakeInput>> {
    match workload {
        "wide_serve" => Some(vec![wide_star(seed)]),
        "lake_churn" => Some(vec![churn_lake(seed)]),
        _ => None,
    }
}

/// The lakes of block `block` of a run with seed `seed`: each block draws
/// its own values, and no two (seed, block) pairs below 2^60 share a draw.
pub fn block_lakes(workload: &str, seed: u64, block: usize) -> Vec<LakeInput> {
    let draw = seed.wrapping_mul(16).wrapping_add(block as u64);
    workload_lakes(workload, draw).expect("known workload")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell of every table, as printed values, in table order.
    fn cells(lakes: &[LakeInput]) -> Vec<String> {
        let mut out = Vec::new();
        for lake in lakes {
            for t in &lake.tables {
                out.push(format!("{}:{:?}", t.name(), t.column_names()));
                for c in 0..t.n_cols() {
                    out.extend(t.column_at(c).iter().map(|v| format!("{v:?}")));
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_same_tables_other_seed_other_tables() {
        for w in ["wide_serve", "lake_churn"] {
            let a = cells(&workload_lakes(w, 11).unwrap());
            assert_eq!(
                a,
                cells(&workload_lakes(w, 11).unwrap()),
                "{w}: seed 11 twice"
            );
            assert_ne!(
                a,
                cells(&workload_lakes(w, 12).unwrap()),
                "{w}: seeds 11 and 12"
            );
        }
    }

    #[test]
    fn star_shape_and_churn_rotation() {
        let star = wide_star(1);
        assert_eq!(star.tables.len(), STAR_SATELLITES + 1);
        assert_eq!(star.planted_edges.len(), STAR_SATELLITES);
        assert!(star.tables[1..]
            .iter()
            .all(|t| t.n_rows() == STAR_BASE_ROWS * STAR_DUP));
        let lake = churn_lake(1);
        assert_eq!(
            lake.tables
                .iter()
                .filter(|t| t.name().starts_with("fill"))
                .count(),
            FILLER_TABLES
        );
        assert!(lake.churn.iter().any(|(_, tag)| *tag == "filler"));
        assert!(lake.churn.iter().any(|(_, tag)| *tag == "satellite"));
        assert!(lake
            .churn
            .iter()
            .all(|(t, _)| lake.tables.iter().any(|x| x.name() == t)));
    }
}
