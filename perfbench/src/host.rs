//! The run's environment: the knob guard, the host fingerprint recorded
//! with every result, peak resident memory, and the host-speed
//! calibration that puts wall-clock figures on a reference host.

use std::path::Path;

use dynbc_gpusim::knob;

use crate::stats::Samples;

/// Registered `DYNBC_*` knobs set in the environment. The benchmark
/// pins every engine and serve option through constructors, and some
/// constructors still read these variables, so a run with any of them
/// set would measure a different configuration.
pub fn knobs_set() -> Vec<&'static str> {
    knob::KNOBS
        .iter()
        .map(|k| k.name)
        .filter(|name| std::env::var_os(name).is_some())
        .collect()
}

/// Host and source fingerprint: available cores, the git revision when
/// run from a git checkout, a digest of the library sources, and the
/// compiler version.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `available_parallelism` of this process.
    pub nproc: usize,
    /// `HEAD` commit, or `none` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a digest over the library sources (`crates/`), so runs from
    /// exported trees can still be matched to their code.
    pub source_digest: String,
    /// `rustc --version`.
    pub rustc: String,
}

impl Fingerprint {
    /// Collects the fingerprint of the current directory's tree.
    pub fn collect() -> Self {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "none".into()),
            source_digest: format!("{:016x}", source_digest(Path::new("crates"))),
            rustc,
        }
    }
}

/// Resolves `HEAD` by reading the git directory directly (no process,
/// no search above the working directory).
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(refname).map(|rev| rev.trim().to_string()))
}

fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs") | Some("toml")
            ) {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-speed calibration: a fixed Brandes-style forward sweep (BFS
/// distances and shortest-path counts) over a fixed synthetic graph,
/// written in this package so that no change to the library moves it.
///
/// On a shared 2-vCPU Xeon virtual machine the host's speed wanders by
/// up to 1.6× for minutes at a time, by the same factor for cheap and
/// costly insertions alike. A dependent-multiply loop barely sees it;
/// this sweep, which has the engines' access pattern, tracks it: with
/// one `sim-edge-node` round replayed for 90 s and both averaged over
/// 2.5 s windows, dividing the round time by the sweep time cut its log
/// standard deviation from 0.095 to 0.039 (log-log slope 1.1).
/// Workloads sample it while their engines are idle, between segments
/// of measured work; each segment's times are put on a reference host
/// with the sweeps taken around it (see [`WallSamples`]).
pub struct Calibration {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    dist: Vec<u32>,
    sigma: Vec<f64>,
    queue: Vec<u32>,
    sweep_ns: Vec<f64>,
    next_source: usize,
}

impl Calibration {
    /// Vertices of the calibration graph.
    const N: usize = 20_000;
    /// Random neighbours drawn per vertex (the graph is undirected, so
    /// the mean degree is twice this).
    const HALF_DEGREE: usize = 3;
    /// Sweeps per [`Calibration::sample`] call.
    const SWEEPS: usize = 5;
    /// Sweep time of the reference host.
    pub const REF_SWEEP_NS: f64 = 1e6;

    /// The fixed calibration graph, built from a fixed xorshift stream.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut edges = Vec::with_capacity(2 * Self::N * Self::HALF_DEGREE);
        for u in 0..Self::N as u32 {
            for _ in 0..Self::HALF_DEGREE {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % Self::N as u64) as u32;
                edges.push((u, v));
                edges.push((v, u));
            }
        }
        edges.sort_unstable();
        let mut offsets = vec![0u32; Self::N + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..Self::N {
            offsets[i + 1] += offsets[i];
        }
        Self {
            offsets,
            targets: edges.iter().map(|&(_, v)| v).collect(),
            dist: vec![u32::MAX; Self::N],
            sigma: vec![0.0; Self::N],
            queue: Vec::with_capacity(Self::N),
            sweep_ns: Vec::new(),
            next_source: 0,
        }
    }

    /// One forward sweep from `s`; returns a checksum so the work is
    /// not optimised away.
    fn sweep(&mut self, s: usize) -> f64 {
        self.dist.fill(u32::MAX);
        self.sigma.fill(0.0);
        self.queue.clear();
        self.dist[s] = 0;
        self.sigma[s] = 1.0;
        self.queue.push(s as u32);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            let next = self.dist[u] + 1;
            for &v in &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                let v = v as usize;
                if self.dist[v] == u32::MAX {
                    self.dist[v] = next;
                    self.queue.push(v as u32);
                }
                if self.dist[v] == next {
                    self.sigma[v] += self.sigma[u];
                }
            }
        }
        self.sigma[*self.queue.last().expect("source enqueued") as usize]
    }

    /// Times a few sweeps from the next fixed sources.
    pub fn sample(&mut self) {
        for _ in 0..Self::SWEEPS {
            let s = (self.next_source * 7_919) % Self::N;
            self.next_source += 1;
            let t = crate::trace::now();
            std::hint::black_box(self.sweep(s));
            self.sweep_ns.push(t.elapsed().as_nanos() as f64);
        }
    }

    /// Sweeps timed so far: a mark for [`Calibration::factor_since`].
    pub fn sweeps(&self) -> usize {
        self.sweep_ns.len()
    }

    /// Median time of the sweeps since `mark`, in nanoseconds.
    pub fn median_ns_since(&self, mark: usize) -> f64 {
        let mut s = Samples::new();
        for &ns in &self.sweep_ns[mark..] {
            s.push(ns);
        }
        s.p50()
    }

    /// Factor that puts a wall time measured while the sweeps since
    /// `mark` were taken on the reference host: the reference sweep time
    /// over their median.
    pub fn factor_since(&self, mark: usize) -> f64 {
        Self::REF_SWEEP_NS / self.median_ns_since(mark)
    }

    /// Takes a sample and returns the factor for the work done since the
    /// previous one: the reference sweep time over the median of both
    /// samples' sweeps, i.e. the host's speed around that work.
    pub fn segment_factor(&mut self) -> f64 {
        let previous = self.sweeps().saturating_sub(Self::SWEEPS);
        self.sample();
        self.factor_since(previous)
    }
}

/// One path's wall times, as measured and put on the reference host
/// segment by segment: each time is scaled by the
/// [`Calibration::segment_factor`] of the segment it was measured in, so
/// a change of host speed within a run scales only the times it slowed.
#[derive(Debug, Clone, Default)]
pub struct WallSamples {
    /// As measured.
    pub measured: Samples,
    /// On the reference host.
    pub scaled: Samples,
    pending: Vec<f64>,
}

impl WallSamples {
    /// Records one time of the open segment.
    pub fn push(&mut self, t: f64) {
        self.measured.push(t);
        self.pending.push(t);
    }

    /// Closes the open segment, scaling its times by `factor`.
    pub fn close_segment(&mut self, factor: f64) {
        for t in self.pending.drain(..) {
            self.scaled.push(t * factor);
        }
    }

    /// Times recorded.
    pub fn len(&self) -> usize {
        self.measured.len()
    }

    /// Count per second of summed time, measured and scaled, for times in
    /// milliseconds.
    pub fn rate_per_s(&self) -> (f64, f64) {
        let n = self.len() as f64;
        (
            n / (self.measured.sum() / 1e3),
            n / (self.scaled.sum() / 1e3),
        )
    }
}

impl std::fmt::Debug for Calibration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Calibration")
            .field("sweeps", &self.sweeps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_graph_is_fixed_and_connected_enough() {
        let mut a = Calibration::new();
        let mut b = Calibration::new();
        assert_eq!(a.targets, b.targets, "the graph does not depend on the run");
        assert_eq!(a.sweep(0), b.sweep(0));
        let reached = a.dist.iter().filter(|&&d| d != u32::MAX).count();
        assert!(reached > Calibration::N * 9 / 10, "reached {reached}");
        a.sample();
        assert_eq!(a.sweeps(), Calibration::SWEEPS);
        assert!(a.factor_since(0) > 0.0 && a.factor_since(0).is_finite());
        a.sweep_ns = vec![1e6, 4e6, 2e6, 8e6, 8e6];
        assert_eq!(a.factor_since(0), 0.25, "reference over the median sweep");
        assert_eq!(
            a.factor_since(3),
            0.125,
            "median of the sweeps since the mark"
        );
    }
}
