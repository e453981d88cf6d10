//! Set-up: the SNYT world, a seeded corpus, every substrate of the
//! paper's "All × All" configuration, and the pre-drawn query stream.

use crate::adapters::{Activity, Tally, TimedExtractor, TimedResource};
use facet_hierarchies::core::FacetSnapshot;
use facet_hierarchies::corpus::{CorpusGenerator, DatasetRecipe, Document, RecipeKind};
use facet_hierarchies::ner::NerTagger;
use facet_hierarchies::resources::{
    ContextResource, GoogleResource, WikiGraphResource, WikiSynonymsResource,
    WordNetHypernymsResource,
};
use facet_hierarchies::termx::{
    NamedEntityExtractor, TermExtractor, WikipediaTitleExtractor, YahooTermExtractor,
};
use facet_hierarchies::textkit::{Vocabulary, Zipf};
use facet_hierarchies::websearch::{generate_web, SearchEngine, WebGenConfig};
use facet_hierarchies::wikipedia::{
    build_wikipedia, TitleIndex, WikiBundle, WikipediaConfig, WikipediaGraph, WikipediaSynonyms,
};
use facet_hierarchies::wordnet::{build_wordnet, WordNet};
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64: the benchmark's own seeded generator, so the corpus seed
/// and the query stream depend on `--seed` and nothing else.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Milliseconds spent in each set-up stage of one set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub world_ms: f64,
    pub corpus_ms: f64,
    pub substrates_ms: f64,
    pub fit_ms: f64,
    /// Clearing the run directory, plus (streaming workloads) building,
    /// persisting and reopening the base archive and drawing the queries.
    pub prepare_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Everything the extractors and resources are built from. Owned, so the
/// borrowing layers above it can be rebuilt per set-up repetition.
pub struct Substrates {
    pub wiki: WikiBundle,
    pub wordnet: WordNet,
    pub web: SearchEngine,
    pub ne: NamedEntityExtractor,
    pub yahoo: YahooTermExtractor,
    /// The seeded corpus, in arrival order.
    pub docs: Vec<Document>,
}

impl Substrates {
    /// The SNYT world (fixed) and a corpus of `n_docs` articles whose
    /// generator seed is derived from `seed`. The title index is handed
    /// back apart because the title extractor takes it by value.
    pub fn build(seed: u64, n_docs: usize, times: &mut SetupTimes) -> (Self, TitleIndex) {
        let mut recipe = DatasetRecipe::scaled(RecipeKind::Snyt, 1.0);
        recipe.generator.n_docs = n_docs;
        recipe.generator.seed = SplitMix::new(seed ^ recipe.generator.seed).next_u64();

        let t = Instant::now();
        let world = recipe.build_world();
        times.world_ms = ms_since(t);

        let t = Instant::now();
        let mut vocab = Vocabulary::new();
        let corpus = CorpusGenerator::new(&world, recipe.generator.clone()).generate(&mut vocab);
        times.corpus_ms = ms_since(t);

        let t = Instant::now();
        let wiki = build_wikipedia(&world, &WikipediaConfig::default());
        let wordnet = build_wordnet(&world);
        let web = SearchEngine::new(generate_web(&world, &WebGenConfig::default()));
        let ne = NamedEntityExtractor::new(NerTagger::from_world(&world));
        let titles = TitleIndex::build(&wiki.wiki, &wiki.redirects);
        times.substrates_ms = ms_since(t);

        let t = Instant::now();
        let yahoo = YahooTermExtractor::fit(&corpus.db, &vocab);
        times.fit_ms = ms_since(t);

        let sub = Self {
            docs: corpus.db.docs().to_vec(),
            wiki,
            wordnet,
            web,
            ne,
            yahoo,
        };
        (sub, titles)
    }
}

/// The Wikipedia views the title extractor and two resources borrow.
pub struct Kb<'s> {
    pub graph: WikipediaGraph<'s>,
    pub synonyms: WikipediaSynonyms<'s>,
    pub wiki_x: WikipediaTitleExtractor<'s>,
}

impl<'s> Kb<'s> {
    pub fn new(sub: &'s Substrates, titles: TitleIndex, times: &mut SetupTimes) -> Kb<'s> {
        let t = Instant::now();
        let kb = Kb {
            graph: WikipediaGraph::new(&sub.wiki.wiki, &sub.wiki.redirects),
            synonyms: WikipediaSynonyms::new(
                &sub.wiki.wiki,
                &sub.wiki.redirects,
                &sub.wiki.anchors,
            ),
            wiki_x: WikipediaTitleExtractor::new(&sub.wiki.wiki, titles),
        };
        times.substrates_ms += ms_since(t);
        kb
    }
}

/// The four context resources of the "All" row, in the paper's order.
pub struct Resources<'k> {
    pub google: GoogleResource<'k>,
    pub wordnet: WordNetHypernymsResource<'k>,
    pub synonyms: WikiSynonymsResource<'k>,
    pub graph: WikiGraphResource<'k>,
}

impl<'k> Resources<'k> {
    pub fn new(sub: &'k Substrates, kb: &'k Kb<'k>) -> Self {
        Self {
            google: GoogleResource::new(&sub.web),
            wordnet: WordNetHypernymsResource::new(&sub.wordnet),
            synonyms: WikiSynonymsResource::new(&kb.synonyms),
            graph: WikiGraphResource::new(&kb.graph),
        }
    }
}

/// The extractor and resource lists an index is built with: the bare
/// components, or (traced run) the same components behind timing
/// adapters.
pub struct Layers<'r> {
    extractors: Vec<TimedExtractor<'r>>,
    resources: Vec<TimedResource<'r>>,
    activity: Arc<Activity>,
    traced: bool,
}

impl<'r> Layers<'r> {
    pub fn new(sub: &'r Substrates, kb: &'r Kb<'r>, res: &'r Resources<'r>, traced: bool) -> Self {
        let extractors: [&'r dyn TermExtractor; 3] = [&sub.ne, &sub.yahoo, &kb.wiki_x];
        let resources: [&'r dyn ContextResource; 4] =
            [&res.google, &res.wordnet, &res.synonyms, &res.graph];
        let activity = Arc::new(Activity::default());
        Self {
            extractors: extractors
                .into_iter()
                .map(|inner| TimedExtractor {
                    inner,
                    tally: Tally::default(),
                    activity: Arc::clone(&activity),
                })
                .collect(),
            resources: resources
                .into_iter()
                .map(|inner| TimedResource {
                    inner,
                    tally: Tally::default(),
                    activity: Arc::clone(&activity),
                })
                .collect(),
            activity,
            traced,
        }
    }

    pub fn extractors(&self) -> Vec<&dyn TermExtractor> {
        self.extractors
            .iter()
            .map(|e| {
                if self.traced {
                    e as &dyn TermExtractor
                } else {
                    e.inner
                }
            })
            .collect()
    }

    pub fn resources(&self) -> Vec<&dyn ContextResource> {
        self.resources
            .iter()
            .map(|r| {
                if self.traced {
                    r as &dyn ContextResource
                } else {
                    r.inner
                }
            })
            .collect()
    }

    /// Wall time during which any extractor or resource call was in
    /// flight (traced run only).
    pub fn plugin_wall_ms(&self) -> f64 {
        self.activity.ms()
    }

    pub fn extractor_tallies(&self) -> impl Iterator<Item = &Tally> {
        self.extractors.iter().map(|e| &e.tally)
    }

    pub fn resource_tallies(&self) -> impl Iterator<Item = &Tally> {
        self.resources.iter().map(|r| &r.tally)
    }
}

/// The query pool: forest root labels, then each root's child labels,
/// in forest order, without repeats.
pub fn query_pool(snapshot: &FacetSnapshot) -> Vec<String> {
    let forest = snapshot.forest();
    let mut pool: Vec<String> = Vec::new();
    for tree in &forest.trees {
        pool.push(forest.label(&tree.root).to_string());
    }
    for tree in &forest.trees {
        for child in &tree.root.children {
            pool.push(forest.label(child).to_string());
        }
    }
    let mut seen = std::collections::HashSet::new();
    pool.retain(|label| seen.insert(label.clone()));
    pool
}

/// Zipf exponent of the query mix.
pub const ZIPF_S: f64 = 1.07;
/// Share of queries that carry a second term.
pub const TWO_TERM_SHARE: f64 = 0.25;

/// A pre-drawn Zipfian stream of 1–2-term queries over `pool`.
pub fn query_stream(pool: &[String], n: usize, seed: u64) -> Vec<Vec<String>> {
    assert!(
        !pool.is_empty(),
        "the built archive has no facet forest to browse"
    );
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let mut rng = SplitMix::new(seed ^ 0x51EE_D0F0_0D5E_ED00);
    (0..n)
        .map(|_| {
            let mut q = vec![pool[zipf.sample(rng.unit())].clone()];
            if rng.unit() < TWO_TERM_SHARE {
                q.push(pool[zipf.sample(rng.unit())].clone());
            }
            q
        })
        .collect()
}
