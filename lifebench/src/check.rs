//! The benchmark's own correctness checker. It re-derives what the
//! program published from plain data copied out of a snapshot, with its
//! own formulas, so a fault in the program's selection, subsumption,
//! browse or recovery code cannot hide behind the same code path.

use facet_hierarchies::core::{BrowseResult, FacetSnapshot, TreeNode};
use std::collections::HashMap;

/// Selection and subsumption settings the index runs with (the
/// program's defaults, restated so the checker does not read them back
/// from the code under test).
pub const SUBSUME_THRESHOLD: f64 = 0.8;
pub const MIN_GENERALITY_RATIO: f64 = 1.5;
pub const MAX_PARENT_DF_FRACTION: f64 = 0.8;
pub const MIN_LIFT: f64 = 1.15;

/// One published candidate facet term.
#[derive(Debug, Clone, PartialEq)]
pub struct Cand {
    pub term: u32,
    pub label: String,
    pub df: u64,
    pub df_c: u64,
    pub shift_f: i64,
    pub score: f64,
}

/// Plain-data copy of a published snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    pub generation: u64,
    /// Contextualized term ids per document (sorted), in global id order.
    pub rows: Vec<Vec<u32>>,
    pub candidates: Vec<Cand>,
    /// `(parent, child)` forest edges by term id.
    pub edges: Vec<(u32, u32)>,
    /// Every forest node with the document count it displays.
    pub nodes: Vec<(u32, u64)>,
    /// Forest root ids, and each node's children, in display order.
    pub roots: Vec<u32>,
    pub children: HashMap<u32, Vec<u32>>,
    pub labels: HashMap<u32, String>,
    pub ids: HashMap<String, u32>,
}

impl View {
    pub fn of(snapshot: &FacetSnapshot) -> Self {
        let vocab = snapshot.vocab();
        let mut view = View {
            generation: snapshot.generation(),
            rows: snapshot
                .doc_terms()
                .iter()
                .map(|row| {
                    let mut ids: Vec<u32> = row.iter().map(|t| t.0).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect(),
            candidates: snapshot
                .candidates()
                .iter()
                .map(|c| Cand {
                    term: c.term.0,
                    label: vocab.term(c.term).to_string(),
                    df: c.df,
                    df_c: c.df_c,
                    shift_f: c.shift_f,
                    score: c.score,
                })
                .collect(),
            edges: Vec::new(),
            nodes: Vec::new(),
            roots: Vec::new(),
            children: HashMap::new(),
            labels: HashMap::new(),
            ids: HashMap::new(),
        };
        fn walk(node: &TreeNode, view: &mut View) {
            view.nodes.push((node.term.0, node.doc_count));
            let kids: Vec<u32> = node.children.iter().map(|c| c.term.0).collect();
            for &k in &kids {
                view.edges.push((node.term.0, k));
            }
            view.children.insert(node.term.0, kids);
            for c in &node.children {
                walk(c, view);
            }
        }
        for tree in &snapshot.forest().trees {
            view.roots.push(tree.root.term.0);
            walk(&tree.root, &mut view);
        }
        for (id, label) in vocab.iter() {
            view.labels.insert(id.0, label.to_string());
            view.ids.insert(label.to_string(), id.0);
        }
        view
    }

    fn label(&self, t: u32) -> &str {
        self.labels.get(&t).map_or("", String::as_str)
    }

    fn has(&self, doc: u32, term: u32) -> bool {
        self.rows[doc as usize].binary_search(&term).is_ok()
    }

    /// The ascending list of documents containing each of `terms`.
    fn postings(&self, terms: &[u32]) -> HashMap<u32, Vec<u32>> {
        let mut lists: HashMap<u32, Vec<u32>> = terms.iter().map(|&t| (t, Vec::new())).collect();
        for (d, row) in self.rows.iter().enumerate() {
            for t in row {
                if let Some(list) = lists.get_mut(t) {
                    list.push(d as u32);
                }
            }
        }
        lists
    }
}

/// Dunning's G² over the 2×2 table (term present / absent) × (D, C(D)),
/// both of `n` documents: `G² = 2 Σ O ln(O / E)`. The paper's `−log λ`
/// is half of it.
pub fn dunning_g2(df: u64, df_c: u64, n: u64) -> f64 {
    let n = n as f64;
    let (a, b) = (df as f64, df_c as f64);
    let present = (a + b) / 2.0;
    let absent = n - present;
    let cell = |o: f64, e: f64| if o > 0.0 { o * (o / e).ln() } else { 0.0 };
    2.0 * (cell(a, present) + cell(b, present) + cell(n - a, absent) + cell(n - b, absent))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Candidate statistics, score and ranking, and every forest edge.
pub fn check_snapshot(view: &View) -> Result<(), String> {
    let n = view.rows.len() as u64;
    if n == 0 {
        return Err("the snapshot indexes no documents".into());
    }
    let cand_terms: Vec<u32> = view.candidates.iter().map(|c| c.term).collect();
    let postings = view.postings(&cand_terms);
    let df = |t: u32| postings[&t].len() as u64;
    let mut scores = Vec::with_capacity(view.candidates.len());
    for c in &view.candidates {
        let recount = df(c.term);
        if recount != c.df_c {
            return Err(format!(
                "{:?}: df_c {} published, {} recounted",
                c.label, c.df_c, recount
            ));
        }
        if c.shift_f != c.df_c as i64 - c.df as i64 || c.shift_f <= 0 {
            return Err(format!(
                "{:?}: shift_f {} with df {} and df_c {}",
                c.label, c.shift_f, c.df, c.df_c
            ));
        }
        let score = dunning_g2(c.df, c.df_c, n) / 2.0;
        if !close(score, c.score) {
            return Err(format!(
                "{:?}: score {} published, {} recomputed",
                c.label, c.score, score
            ));
        }
        scores.push(score);
    }
    for (i, pair) in view.candidates.windows(2).enumerate() {
        let (a, b) = (scores[i], scores[i + 1]);
        let ordered = if close(a, b) {
            pair[0].label < pair[1].label
        } else {
            a > b
        };
        if !ordered {
            return Err(format!(
                "ranking: {:?} ({a}) before {:?} ({b})",
                pair[0].label, pair[1].label
            ));
        }
    }

    for &(t, shown) in &view.nodes {
        if !postings.contains_key(&t) {
            return Err(format!(
                "forest term {:?} is not a candidate",
                view.label(t)
            ));
        }
        if df(t) != shown {
            return Err(format!(
                "forest node {:?} shows {shown} documents, {} recounted",
                view.label(t),
                df(t)
            ));
        }
    }
    let max_parent_df = (MAX_PARENT_DF_FRACTION * n as f64).ceil() as u64;
    for &(x, y) in &view.edges {
        let co = postings[&y].iter().filter(|&&d| view.has(d, x)).count() as f64;
        let (dx, dy) = (df(x) as f64, df(y) as f64);
        let p_x_given_y = co / dy;
        let p_y_given_x = co / dx;
        let lift = p_x_given_y / (dx / n as f64);
        let ok = p_x_given_y >= SUBSUME_THRESHOLD
            && p_y_given_x < 1.0
            && dx >= MIN_GENERALITY_RATIO * dy
            && df(x) <= max_parent_df
            && lift >= MIN_LIFT;
        if !ok {
            return Err(format!(
                "edge {:?} -> {:?} breaks the subsumption rule: P(p|c)={p_x_given_y:.3} \
                 P(c|p)={p_y_given_x:.3} df {dx}/{dy} lift {lift:.3}",
                view.label(x),
                view.label(y)
            ));
        }
    }
    Ok(())
}

/// Recompute a browse answer by brute force over the pinned snapshot's
/// rows and forest, and compare it with what the server returned.
pub fn check_browse(view: &View, query: &[String], got: &BrowseResult) -> Result<(), String> {
    let mut terms: Vec<String> = query
        .iter()
        .map(|q| q.trim().to_lowercase())
        .filter(|q| !q.is_empty())
        .collect();
    terms.sort();
    terms.dedup();
    let ids: Option<Vec<u32>> = terms.iter().map(|t| view.ids.get(t).copied()).collect();
    let docs: Vec<u32> = match &ids {
        Some(ids) => (0..view.rows.len() as u32)
            .filter(|&d| ids.iter().all(|&t| view.has(d, t)))
            .collect(),
        None => Vec::new(),
    };
    let candidates: Vec<u32> = terms
        .iter()
        .filter_map(|t| view.ids.get(t))
        .find_map(|t| view.children.get(t))
        .cloned()
        .unwrap_or_else(|| view.roots.clone());
    let mut refinements: Vec<(String, u64)> = candidates
        .iter()
        .map(|&c| {
            let count = docs.iter().filter(|&&d| view.has(d, c)).count() as u64;
            (view.label(c).to_string(), count)
        })
        .filter(|(_, count)| *count > 0)
        .collect();
    refinements.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    if got.generation != view.generation {
        return Err(format!(
            "browse {query:?}: generation {} against pinned {}",
            got.generation, view.generation
        ));
    }
    if got.docs != docs {
        return Err(format!(
            "browse {query:?}: {} documents returned, {} expected",
            got.docs.len(),
            docs.len()
        ));
    }
    if got.refinements != refinements {
        return Err(format!(
            "browse {query:?}: refinements differ from the brute-force recount"
        ));
    }
    Ok(())
}

/// A recovered index must publish exactly what the live one did, with
/// every acknowledged document.
pub fn check_recovery(
    live: &View,
    live_digest: u64,
    recovered: &View,
    recovered_digest: u64,
    acknowledged_docs: usize,
) -> Result<(), String> {
    if recovered.rows.len() != acknowledged_docs {
        return Err(format!(
            "recovered {} documents, {} were acknowledged",
            recovered.rows.len(),
            acknowledged_docs
        ));
    }
    if recovered_digest != live_digest || recovered != live {
        return Err(format!(
            "recovered generation {} differs from the live generation {}",
            recovered.generation, live.generation
        ));
    }
    Ok(())
}
