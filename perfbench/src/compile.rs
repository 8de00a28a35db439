//! Compiling pairs of declarations: the cold/warm cycle every workload
//! times on its own pairs, and the `compile` workload that times it on
//! the §5-scale corpus.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mockingbird::artifact::{MemoryStore, SegmentStore};
use mockingbird::comparer::CompareCache;
use mockingbird::corpus::{marshal_corpus, sample_value, visualage};
use mockingbird::mtype::{MtypeGraph, MtypeId};
use mockingbird::plan::CoercionPlan;
use mockingbird::stype::lower::Lowerer;
use mockingbird::stype::script::apply_script;
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::{CdrWriter, ProgramCache, WireProgram};
use mockingbird::{BatchCompiler, BatchOptions, BatchReport, PairOutcome};
use mockingbird_rng::StdRng;

use crate::probe::HostCpu;
use crate::stats::{lowest, median, relative_iqr, Samples};
use crate::trace::{Span, Tracer};
use crate::{Outcome, Run};

/// The marshal corpus and the VisualAge slice are pinned to one corpus
/// seed rather than drawn from the run seed: at five classes the slice's
/// cold pass ranges from 0.1 s to 2.3 s across corpus seeds, so a
/// corpus drawn per run would measure the seed, not the code. The run
/// seed orders the pairs and draws the checked sample values.
const CORPUS_SEED: u64 = 42;
/// The seed-pinned marshal corpus of `report x6`/`x11`/`x13`.
const MARSHAL_CLASSES: usize = 200;
/// The largest VisualAge slice whose cold pass, programs on, finishes
/// in well under a few seconds before the `canonize` blow-up: at six
/// and seven classes it runs past 40 s.
const VISUALAGE_CLASSES: usize = 5;
/// Encode passes in one window of [`Outcome::set_quietest`], about
/// 100 ms of them.
const ENCODE_PASSES: usize = 2000;
/// Windows of encode passes after each cycle: a cycle takes near two
/// seconds, and more windows give the run more chances to meet a quiet
/// stretch of the host.
const ENCODE_WINDOWS: usize = 4;
/// A traced run traces every this many'th encode pass, interleaved with
/// the untraced ones.
const TRACE_EVERY: usize = 80;

/// A frozen graph and the root pairs to compile in it.
pub struct Pairs {
    pub graph: Arc<MtypeGraph>,
    pub pairs: Vec<(MtypeId, MtypeId)>,
}

/// One cold compile into a fresh store plus one warm recompile from it.
pub struct Cycle {
    pub cold_s: f64,
    pub warm_s: f64,
    pub commit_ms: f64,
    pub load_ms: f64,
    pub store_bytes: u64,
    pub cold: BatchReport,
    pub warm: BatchReport,
}

impl Cycle {
    /// Pairs whose verdict differs from the known answer: every pair a
    /// workload compiles is known to match.
    pub fn wrong_verdicts(&self) -> u64 {
        (self.cold.stats.mismatched + self.warm.stats.mismatched) as u64
    }
}

/// Cold: a fresh compiler (empty caches) builds plans and wire programs
/// for every pair and stores them: committed to a fresh [`SegmentStore`]
/// in `dir`, or with no `dir` put in a fresh [`MemoryStore`]. Warm: a
/// fresh compiler opens that store, imports from it and recompiles the
/// same pairs.
pub fn cycle(p: &Pairs, dir: Option<&Path>) -> Result<Cycle, String> {
    let io = |e: &dyn std::fmt::Display| format!("store: {e}");
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).map_err(|e| io(&e))?;
    }
    // One worker: on a two-core host shared with other tenants, two
    // workers make both the wall time and the peak RSS (two large
    // canonize strings alive at once, or not) depend on scheduling.
    let opts = BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    };
    let memory = MemoryStore::new();

    let t = Instant::now();
    let bc = BatchCompiler::new(p.graph.clone());
    let cold = bc.compile(&p.pairs, &opts);
    let tc = Instant::now();
    if let Some(dir) = dir {
        let store = SegmentStore::open(dir).map_err(|e| io(&e))?;
        bc.cache().store_into(&store);
        bc.programs().store_into(&store);
        store.commit().map_err(|e| io(&e))?;
    } else {
        bc.cache().store_into(&memory);
        bc.programs().store_into(&memory);
    }
    let commit_ms = tc.elapsed().as_secs_f64() * 1e3;
    let cold_s = t.elapsed().as_secs_f64();
    let store_bytes = match dir {
        Some(dir) => std::fs::read_dir(dir)
            .map_err(|e| io(&e))?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum(),
        None => 0,
    };

    let t = Instant::now();
    let cache = Arc::new(CompareCache::new());
    let programs = Arc::new(ProgramCache::new());
    if let Some(dir) = dir {
        let store = SegmentStore::open(dir).map_err(|e| io(&e))?;
        cache.load_from(&store);
        programs.load_from(&store);
    } else {
        cache.load_from(&memory);
        programs.load_from(&memory);
    }
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let warm = BatchCompiler::new(p.graph.clone())
        .with_cache(cache)
        .with_programs(programs)
        .compile(&p.pairs, &opts);
    let warm_s = t.elapsed().as_secs_f64();
    Ok(Cycle {
        cold_s,
        warm_s,
        commit_ms,
        load_ms,
        store_bytes,
        cold,
        warm,
    })
}

/// The set-up and compile samples a call workload takes between the
/// segments of its measured pass (see `calls::segmented`). Each tick
/// rebuilds the workload's fixture (a `setup_s` sample) and runs two
/// compile cycles on the workload's own pairs against a [`MemoryStore`],
/// timing the second. (A fresh on-disk segment's `fsync` alone would be
/// most of a sub-millisecond compile, and it swings with the other
/// tenants' disk traffic; `compile` measures the on-disk store.) Ticks
/// spread over the run sample the same host conditions as the calls: on
/// a shared host the speed of allocation-heavy code swings by half over
/// seconds, so a burst of samples at start-up would measure the moment.
pub struct Ticks<'a> {
    pairs: &'a Pairs,
    rebuild: Box<dyn FnMut() -> Result<(), String> + 'a>,
    setups: Vec<f64>,
    cold: Vec<f64>,
    warm: Vec<f64>,
}

impl<'a> Ticks<'a> {
    /// Ticks over `pairs`, with `rebuild` building the workload's fixture
    /// afresh; `first_setup_s` is the build that came before timing.
    pub fn new(
        pairs: &'a Pairs,
        first_setup_s: f64,
        rebuild: impl FnMut() -> Result<(), String> + 'a,
    ) -> Ticks<'a> {
        Ticks {
            pairs,
            rebuild: Box::new(rebuild),
            setups: vec![first_setup_s],
            cold: Vec::new(),
            warm: Vec::new(),
        }
    }

    /// Runs one tick, counting its compiled pairs in `out`.
    pub fn tick(&mut self, out: &mut Outcome) -> Result<(), String> {
        let t = Instant::now();
        (self.rebuild)()?;
        self.setups.push(t.elapsed().as_secs_f64());
        let untimed = cycle(self.pairs, None)?;
        let timed = cycle(self.pairs, None)?;
        // Two cycles, each compiling every pair cold and warm.
        out.attempted += 4 * self.pairs.pairs.len() as u64;
        out.failed += untimed.wrong_verdicts() + timed.wrong_verdicts();
        self.cold.push(timed.cold_s);
        self.warm.push(timed.warm_s);
        Ok(())
    }

    /// Records the median `setup_s` and the lowest `compile_cold_s` and
    /// `compile_warm_s`. A workload's own pair compiles in well under a
    /// millisecond: there the median moved by a third between runs with
    /// the neighbours' load, while the fastest of the spread samples, each
    /// timed right after an untimed cycle has warmed the processor caches
    /// (not the compile caches, which start empty every cycle), moved by a
    /// few percent.
    pub fn finish(self, out: &mut Outcome) -> Result<(), String> {
        if self.cold.is_empty() {
            return Err("the pass ended before any compile cycle ran".into());
        }
        out.set("setup_s", median(&self.setups));
        out.set("compile_cold_s", lowest(&self.cold));
        out.set("compile_warm_s", lowest(&self.warm));
        Ok(())
    }
}

/// A compiled pair, a seeded value of its left type, and the bytes the
/// interpretive oracle encodes it to.
struct Case {
    program: Arc<WireProgram>,
    value: MValue,
    oracle: Vec<u8>,
}

fn phase_ms(report: &BatchReport, name: &str) -> f64 {
    report
        .stats
        .phases
        .iter()
        .find(|p| p.name == name)
        .map_or(0.0, |p| p.total_us as f64 / 1e3)
}

/// Builds the corpus fixture: the marshal corpus, plus the VisualAge
/// slice annotated and lowered into the same graph, with the pair order
/// drawn from the run seed. Returns the pairs and the annotate and
/// lower times in ms.
fn corpus_fixture(seed: u64) -> Result<(Pairs, f64, f64), String> {
    let corpus = marshal_corpus(MARSHAL_CLASSES, CORPUS_SEED);
    let mut g: MtypeGraph = (*corpus.graph).clone();
    let mut va = visualage(VISUALAGE_CLASSES, CORPUS_SEED);
    let t = Instant::now();
    apply_script(&mut va.java, &va.script).map_err(|e| format!("annotate: {e}"))?;
    let annotate_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let lower = |uni, g: &mut MtypeGraph| -> Result<Vec<MtypeId>, String> {
        let mut lw = Lowerer::new(uni, g);
        va.class_names
            .iter()
            .map(|n| lw.lower_named(n).map_err(|e| format!("lower {n}: {e}")))
            .collect()
    };
    let left = lower(&va.cxx, &mut g)?;
    let right = lower(&va.java, &mut g)?;
    let lower_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut pairs = corpus.pairs;
    pairs.extend(left.into_iter().zip(right));
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..=i));
    }
    Ok((
        Pairs {
            graph: g.snapshot(),
            pairs,
        },
        annotate_ms,
        lower_ms,
    ))
}

/// Draws the checked sample from a cold report: every pair that
/// compiled to a program, each with a value drawn from the run seed and
/// its oracle bytes (plan conversion, then interpretive CDR encoding).
fn sample_cases(graph: &MtypeGraph, report: &BatchReport, seed: u64) -> Result<Vec<Case>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005A_3D1E);
    let compiled: Vec<(&Arc<CoercionPlan>, &Arc<WireProgram>)> = report
        .pairs
        .iter()
        .filter(|p| p.duplicate_of.is_none())
        .filter_map(|p| match &p.outcome {
            PairOutcome::Match {
                plan: Some(plan),
                program: Some(program),
                ..
            } => Some((plan, program)),
            _ => None,
        })
        .collect();
    compiled
        .into_iter()
        .map(|(plan, program)| {
            let value = sample_value(graph, plan.left_root(), &mut rng, 4);
            let converted = plan
                .convert(&value)
                .map_err(|e| format!("oracle convert: {e}"))?;
            let mut w = CdrWriter::new(Endian::Little);
            w.put_value(graph, plan.right_root(), &converted)
                .map_err(|e| format!("oracle encode: {e}"))?;
            Ok(Case {
                program: program.clone(),
                value,
                oracle: w.into_bytes(),
            })
        })
        .collect()
}

/// One encode pass (the workload's "call"): every sampled value through
/// its compiled program into its own reused buffer, timed as a whole,
/// then each result checked against its oracle bytes. With a tracer, the
/// pass is a `call` span holding one `wire` span per encode. Returns the
/// pass time in ns and the number of wrong encodes.
fn encode_pass(
    cases: &[Case],
    bufs: &mut [Vec<u8>],
    tracer: Option<(&Tracer, &mut Vec<Span>, u64)>,
) -> (u64, u64) {
    let encode = |c: &Case, buf: &mut Vec<u8>| {
        let mut w = CdrWriter::from_vec(std::mem::take(buf), Endian::Little);
        let ok = c.program.encode_value(&mut w, &c.value).is_ok();
        *buf = w.into_bytes();
        ok
    };
    let t = Instant::now();
    let ok = match tracer {
        None => cases
            .iter()
            .zip(bufs.iter_mut())
            .fold(true, |ok, (c, buf)| encode(c, buf) & ok),
        Some((tr, spans, trace)) => {
            tr.span(spans, trace, 1, 0, "call", "encode_pass", |spans, root| {
                let mut ok = true;
                for (k, (c, buf)) in cases.iter().zip(bufs.iter_mut()).enumerate() {
                    ok &= tr.span(
                        spans,
                        trace,
                        2 + k as u64,
                        root,
                        "wire",
                        "encode",
                        |_, _| encode(c, buf),
                    );
                }
                ok
            })
        }
    };
    let ns = t.elapsed().as_nanos() as u64;
    let mut wrong = 0;
    for (c, buf) in cases.iter().zip(bufs.iter_mut()) {
        wrong += u64::from(!ok || *buf != c.oracle);
        buf.clear();
    }
    (ns, wrong)
}

/// Appends one cycle's figures to the per-metric columns.
fn record(c: &Cycle, cols: &mut std::collections::BTreeMap<&'static str, Vec<f64>>) {
    let mut push = |k: &'static str, v: f64| cols.entry(k).or_default().push(v);
    push("compile_cold_s", c.cold_s);
    push("compile_warm_s", c.warm_s);
    push("artifact.commit_ms", c.commit_ms);
    push("artifact.load_ms", c.load_ms);
    push("artifact.store_bytes", c.store_bytes as f64);
    push("comparer.compare_ms", phase_ms(&c.cold, "compare"));
    push("plan.build_ms", phase_ms(&c.cold, "plan"));
    push("wire.canonize_ms", phase_ms(&c.cold, "canonize"));
    push("wire.canonize_warm_ms", phase_ms(&c.warm, "canonize"));
    push("wire.lower_ms", phase_ms(&c.cold, "lower"));
    push(
        "wire.programs_compiled",
        c.cold.stats.programs.compiles as f64,
    );
    push("wire.fallbacks", c.cold.stats.programs.unsupported as f64);
    push("comparer.verdict_hit_ratio", c.warm.stats.cache.hit_rate());
    push(
        "comparer.corr_hit_ratio",
        c.warm.stats.cache.corr_hits as f64 / c.warm.stats.unique_pairs.max(1) as f64,
    );
}

/// The `compile` workload: what `mbc batch` does with plans and programs
/// on, over the 200-class marshal corpus plus the VisualAge slice.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let t = Instant::now();
    let (p, annotate_ms, lower_ms) = corpus_fixture(run.seed)?;
    let (mut setups, mut annotate, mut lower) = (
        vec![t.elapsed().as_secs_f64()],
        vec![annotate_ms],
        vec![lower_ms],
    );
    println!(
        "compile: {} pairs ({MARSHAL_CLASSES} marshal classes + {VISUALAGE_CLASSES} VisualAge classes, corpus seed {CORPUS_SEED})",
        p.pairs.len()
    );
    let dir = run.dir.join("store");
    let tracer = Tracer::new();
    let mut spans = Vec::new();
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let (mut encode_s, mut windows) = (0.0, Vec::new());
    let mut cases: Vec<Case> = Vec::new();
    let mut cols: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut reps = 0usize;
    let host = HostCpu::now()?;
    while reps < 2 || Instant::now() < deadline {
        if reps > 0 {
            // A fresh fixture each later cycle: the `setup_s` samples
            // spread over the run like the cycles do (see [`Ticks`]).
            let t = Instant::now();
            let (_, a, l) = corpus_fixture(run.seed)?;
            setups.push(t.elapsed().as_secs_f64());
            annotate.push(a);
            lower.push(l);
        }
        let c = cycle(&p, Some(&dir))?;
        reps += 1;
        if cases.is_empty() {
            // The first cold pass's programs are the encode sample.
            cases = sample_cases(&p.graph, &c.cold, run.seed)?;
        }
        // Keep the figures, not the reports: holding every cycle's plans
        // and programs would make the peak RSS grow with the cycle count.
        out.attempted += 2 * p.pairs.len() as u64;
        out.failed += c.wrong_verdicts();
        record(&c, &mut cols);
        drop(c);
        let mut bufs = vec![Vec::new(); cases.len()];
        let (mut window, mut window_s) = (Samples::default(), 0.0);
        for k in 0..ENCODE_PASSES * ENCODE_WINDOWS {
            let (ns, wrong) = encode_pass(&cases, &mut bufs, None);
            plain.push(ns);
            window.push(ns);
            window_s += ns as f64 / 1e9;
            out.attempted += cases.len() as u64;
            out.failed += wrong;
            if run.trace && k % TRACE_EVERY == 0 {
                let trace = (reps as u64) << 16 | k as u64;
                let (ns, wrong) =
                    encode_pass(&cases, &mut bufs, Some((&tracer, &mut spans, trace)));
                traced.push(ns);
                out.attempted += cases.len() as u64;
                out.failed += wrong;
            }
            if (k + 1) % ENCODE_PASSES == 0 {
                encode_s += window_s;
                windows.push((window.summary().p50_us, ENCODE_PASSES as f64 / window_s));
                (window, window_s) = (Samples::default(), 0.0);
            }
        }
    }

    out.set_steal(HostCpu::now()?.steal_pct_since(host));
    for (k, v) in &cols {
        out.set(k, median(v));
    }
    // Cycles are CPU-bound like the encode passes: the fastest counts
    // (see `Outcome::set_quietest`), as for the call workloads' ticks.
    out.set("compile_cold_s", lowest(&cols["compile_cold_s"]));
    out.set("compile_warm_s", lowest(&cols["compile_warm_s"]));
    out.set("setup_s", median(&setups));
    out.set("stype.annotate_ms", median(&annotate));
    out.set("stype.lower_ms", median(&lower));
    let plain_p50 = out.set_quietest(run, &plain, &windows, plain.len() as f64 / encode_s)?;
    println!(
        "compile: {} cold/warm cycles; fastest cold {:.3} s, warm {:.3} s (medians {:.3} s / \
         {:.3} s, within-run spread {:.1}% / {:.1}%); {} encode passes over {} compiled pairs, \
         every encode checked against the oracle",
        reps,
        out.get("compile_cold_s"),
        out.get("compile_warm_s"),
        median(&cols["compile_cold_s"]),
        median(&cols["compile_warm_s"]),
        relative_iqr(&cols["compile_cold_s"]) * 100.0,
        relative_iqr(&cols["compile_warm_s"]) * 100.0,
        plain.len(),
        cases.len(),
    );
    if run.trace {
        let traced = traced.summary();
        out.set("obs.trace_overhead", traced.p50_us / plain_p50);
        out.set_span_self_times(run, &spans)?;
    }
    Ok(out)
}
