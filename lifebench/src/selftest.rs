//! The checker's self-test: on a tiny archive, the untouched outputs
//! pass, and each of four corruptions is rejected.

use crate::check::{check_browse, check_recovery, check_snapshot, View};
use crate::env::{query_pool, Kb, Layers, Resources, SetupTimes, Substrates};
use facet_hierarchies::core::{FacetServer, PipelineOptions, ShardedFacetIndex};
use facet_hierarchies::store::FacetStore;
use std::process::ExitCode;

const DOCS: usize = 200;
const BATCH: usize = 50;

pub fn run() -> ExitCode {
    let mut times = SetupTimes::default();
    let (sub, titles) = Substrates::build(7, DOCS, &mut times);
    let kb = Kb::new(&sub, titles, &mut times);
    let res = Resources::new(&sub, &kb);
    let layers = Layers::new(&sub, &kb, &res, false);
    let dir = crate::manifest_dir()
        .join("runs")
        .join(format!("selftest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let store = FacetStore::open(&dir).expect("open the self-test store");
    let mut index = ShardedFacetIndex::new(
        1,
        layers.extractors(),
        layers.resources(),
        PipelineOptions::default(),
    );
    for chunk in sub.docs.chunks(BATCH) {
        index
            .append_logged(chunk.to_vec(), &store)
            .expect("the self-test archive builds");
    }
    index
        .persist_to(&store)
        .expect("the self-test archive persists");
    let snapshot = index.snapshot();
    let live = View::of(&snapshot);
    let (recovered, _) = ShardedFacetIndex::open_from(
        &store,
        1,
        layers.extractors(),
        layers.resources(),
        PipelineOptions::default(),
    )
    .expect("the self-test archive recovers");
    let recovered_view = View::of(&recovered.snapshot());
    let recovered_digest = recovered.snapshot().digest();

    let pool = query_pool(&snapshot);
    let server = FacetServer::new(index);
    let handle = server.handle();
    let (query, answer) = pool
        .iter()
        .map(|label| {
            let q = vec![label.clone()];
            let a = handle.browse(&[label.as_str()]);
            (q, a)
        })
        .find(|(_, a)| !a.refinements.is_empty())
        .expect("some facet of the self-test archive has refinements");
    std::fs::remove_dir_all(&dir).ok();
    if let Some(runs_dir) = dir.parent() {
        std::fs::remove_dir(runs_dir).ok();
    }

    let mut ok = true;
    let mut expect =
        |what: &str, result: Result<(), String>, should_pass: bool| match (&result, should_pass) {
            (Ok(()), true) => println!("pass     {what}"),
            (Err(e), false) => println!("rejected {what}: {e}"),
            (Ok(()), false) => {
                println!("MISSED   {what}: the checker accepted it");
                ok = false;
            }
            (Err(e), true) => {
                println!("FAILED   {what}: {e}");
                ok = false;
            }
        };

    expect("untouched snapshot", check_snapshot(&live), true);
    expect(
        "untouched browse answer",
        check_browse(&live, &query, &answer),
        true,
    );
    expect(
        "untouched recovery",
        check_recovery(
            &live,
            snapshot.digest(),
            &recovered_view,
            recovered_digest,
            DOCS,
        ),
        true,
    );

    let mut flipped = (*answer).clone();
    flipped.refinements[0].1 += 1;
    expect(
        "one flipped refinement count",
        check_browse(&live, &query, &flipped),
        false,
    );

    let mut perturbed = live.clone();
    perturbed.candidates[0].score *= 1.0 + 1e-6;
    expect("one perturbed score", check_snapshot(&perturbed), false);

    let mut bad_edge = live.clone();
    match bad_edge.edges.first().copied() {
        // Reversed, a real edge puts the more specific term on top.
        Some((parent, child)) => bad_edge.edges[0] = (child, parent),
        None => bad_edge.edges.push((bad_edge.roots[0], bad_edge.roots[1])),
    }
    expect(
        "one edge that breaks the rule",
        check_snapshot(&bad_edge),
        false,
    );

    let mut dropped = recovered_view.clone();
    dropped.rows.pop();
    expect(
        "one dropped document",
        check_recovery(&live, snapshot.digest(), &dropped, recovered_digest, DOCS),
        false,
    );

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
