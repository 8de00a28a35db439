//! The benchmark's own spans: recorded around each public-layer call it
//! makes during a traced pass, kept in memory, written out at the end,
//! and reduced to per-layer self times.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The call this span belongs to; every span of one call shares it.
    pub trace: u64,
    /// This span's id, unique within the run.
    pub id: u64,
    /// The enclosing span's id; 0 for a call's root.
    pub parent: u64,
    /// The layer the span times (`call`, `stubgen`, `wire`, `runtime`,
    /// `servant`).
    pub layer: &'static str,
    /// The public call the span wraps (`convert_args`, `encode`, ...).
    pub name: &'static str,
    /// Start and end, nanoseconds since the tracer was made.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A clock plus an in-memory span store shared by the client threads
/// and the servant wrapper.
pub struct Tracer {
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer` under `parent`, handing `f`
    /// the span buffer (for nested spans) and the span's id. Span ids are [`span_id`]`(trace, slot)`, so a
    /// servant that learns the call's trace from its payload can name
    /// its parent without any shared state.
    #[allow(clippy::too_many_arguments)]
    pub fn span<R>(
        &self,
        buf: &mut Vec<Span>,
        trace: u64,
        slot: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Vec<Span>, u64) -> R,
    ) -> R {
        let id = span_id(trace, slot);
        let start_ns = self.now_ns();
        let r = f(buf, id);
        buf.push(Span {
            trace,
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns: self.now_ns(),
        });
        r
    }

    /// Moves a thread's spans into the shared store.
    pub fn absorb(&self, spans: Vec<Span>) {
        self.spans.lock().expect("span store").extend(spans);
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store"))
    }
}

/// The id of the span in `slot` (below 2^16) of call `trace`.
pub fn span_id(trace: u64, slot: u64) -> u64 {
    trace << 16 | slot
}

/// Durations in ns of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

/// Per-call self time of each layer, in nanoseconds: a span's duration
/// minus the part of it its child spans cover, summed over the call's
/// spans of that layer. Calls missing a layer count 0 for it.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<u64>> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut per_call: HashMap<u64, HashMap<&'static str, u64>> = HashMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| covered_ns(s, c));
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *per_call
            .entry(s.trace)
            .or_default()
            .entry(s.layer)
            .or_default() += own;
    }
    let layers: Vec<&'static str> = {
        let mut l: Vec<_> = spans.iter().map(|s| s.layer).collect();
        l.sort_unstable();
        l.dedup();
        l
    };
    let mut out: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for call in per_call.values() {
        for &layer in &layers {
            out.entry(layer)
                .or_default()
                .push(call.get(layer).copied().unwrap_or(0));
        }
    }
    out
}

/// How much of `parent`'s interval the union of `kids` covers.
fn covered_ns(parent: &Span, kids: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|&(a, b)| (a.max(parent.start_ns), b.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Writes the last `keep` spans as tab-separated lines to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span], keep: usize) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "trace\tid\tparent\tlayer\tname\tstart_ns\tend_ns")?;
    for s in &spans[spans.len().saturating_sub(keep)..] {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.trace, s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(trace: u64, id: u64, parent: u64, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            trace,
            id,
            parent,
            layer,
            name: layer,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(1, 1, 0, "call", 0, 100),
            sp(1, 2, 1, "wire", 10, 20),
            sp(1, 3, 1, "runtime", 20, 90),
            sp(1, 4, 3, "servant", 40, 60),
            // Overlapping children are counted once.
            sp(1, 5, 3, "servant", 50, 70),
            sp(1, 6, 1, "wire", 90, 95),
        ];
        let st = self_times(&spans);
        assert_eq!(st["call"], vec![100 - 10 - 70 - 5]);
        assert_eq!(st["wire"], vec![15]);
        assert_eq!(st["runtime"], vec![70 - 30]);
        assert_eq!(st["servant"], vec![20 + 20]);
    }

    #[test]
    fn calls_without_a_layer_count_zero_for_it() {
        let spans = [
            sp(1, 1, 0, "call", 0, 10),
            sp(2, 2, 0, "call", 0, 10),
            sp(2, 3, 2, "wire", 2, 4),
        ];
        let mut w = self_times(&spans)["wire"].clone();
        w.sort_unstable();
        assert_eq!(w, vec![0, 2]);
    }
}
