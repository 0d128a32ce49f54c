//! Job specifications and execution.
//!
//! A [`JobSpec`] is the complete, plain-data description of one
//! simulator run: workload × policy descriptor × duration × quantum ×
//! seed. Everything that can influence the run's outcome is in the
//! spec, so two specs with equal [canonical encodings](JobSpec::canonical)
//! produce bit-identical [`JobResult`]s — the invariant behind both the
//! on-disk cache and the 1-vs-N-worker determinism guarantee.

use itsy_hw::{
    battery::BatteryParams, Battery, ClockTable, DeviceSet, PowerModel, PowerParams, StepIndex,
};
use kernel_sim::{Kernel, KernelConfig, Machine, WindowSample};
use policies::PolicyDesc;
use sim_core::digits::{push_decimal, push_hex16};
use sim_core::{SimDuration, SimFidelity};
use workloads::{
    web::Browser, Benchmark, JavaPoller, MpegConfig, MpegWorkload, SquareWave, WebWorkload,
};

use crate::key::ContentKey;

/// Which tasks to spawn into the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// One of the paper's four named benchmarks.
    Benchmark(Benchmark),
    /// The Web browse trace alone, optionally with the Kaffe 30 ms
    /// poller (the §5.3 Java-poller ablation).
    WebBrowse {
        /// Spawn the JVM polling loop alongside the browser.
        poller: bool,
    },
    /// MPEG with the frame-dropping (elastic) player.
    MpegElastic,
    /// The §5.3 idealized rectangle wave: busy for `busy` quanta, idle
    /// for `idle`, repeating — the load under which AVG_N provably
    /// cannot settle.
    SquareWave {
        /// Busy quanta per period.
        busy: u64,
        /// Idle quanta per period.
        idle: u64,
    },
}

impl WorkloadSpec {
    /// Devices the workload needs powered.
    pub fn devices(&self) -> DeviceSet {
        match self {
            WorkloadSpec::Benchmark(b) => b.devices(),
            WorkloadSpec::WebBrowse { .. } => DeviceSet::LCD,
            WorkloadSpec::MpegElastic => DeviceSet::AV,
            WorkloadSpec::SquareWave { .. } => DeviceSet::NONE,
        }
    }

    /// Spawns the workload's tasks into a kernel.
    pub fn spawn_into(&self, kernel: &mut Kernel, seed: u64) {
        match self {
            WorkloadSpec::Benchmark(b) => b.spawn_into(kernel, seed),
            WorkloadSpec::WebBrowse { poller } => {
                kernel.spawn(Box::new(Browser::new(WebWorkload::browse_trace(seed))));
                if *poller {
                    kernel.spawn(Box::new(JavaPoller::new()));
                }
            }
            WorkloadSpec::MpegElastic => {
                let config = MpegConfig {
                    drop_late_frames: true,
                    ..MpegConfig::default()
                };
                for t in MpegWorkload::new(config, seed).into_tasks() {
                    kernel.spawn(t);
                }
            }
            WorkloadSpec::SquareWave { busy, idle } => {
                kernel.spawn(Box::new(SquareWave::quanta(*busy, *idle)));
            }
        }
    }

    /// Stable canonical tag for content addressing.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    /// Appends [`canonical`](Self::canonical)'s tag to `out`.
    fn write_canonical(&self, out: &mut String) {
        match *self {
            WorkloadSpec::Benchmark(b) => {
                out.push_str("bench:");
                out.push_str(b.name());
            }
            WorkloadSpec::WebBrowse { poller } => {
                out.push_str(if poller {
                    "web_browse:poller=true"
                } else {
                    "web_browse:poller=false"
                });
            }
            WorkloadSpec::MpegElastic => out.push_str("mpeg_elastic"),
            WorkloadSpec::SquareWave { busy, idle } => {
                out.push_str("square:busy=");
                push_decimal(out, busy);
                out.push_str(",idle=");
                push_decimal(out, idle);
            }
        }
    }

    /// Short human-readable name.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Benchmark(b) => b.name().to_string(),
            WorkloadSpec::WebBrowse { poller: true } => "Web+poller".to_string(),
            WorkloadSpec::WebBrowse { poller: false } => "Web-poller".to_string(),
            WorkloadSpec::MpegElastic => "MPEG-elastic".to_string(),
            WorkloadSpec::SquareWave { busy, idle } => format!("Square {busy}/{idle}"),
        }
    }
}

/// Per-device hardware variation, in exact integer units.
///
/// Fleet populations spread devices around the stock Itsy: silicon
/// leakage and board draw differ a few percent per unit, batteries age,
/// and devices start runs at arbitrary charge. All fields are integers
/// (parts-per-million scale factors, milliwatt-hours, percent) so the
/// spec stays `Eq`, the canonical encoding is byte-stable, and a
/// device's hardware derives exactly from its generator draws with no
/// float formatting in the job key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwSpec {
    /// Core-power scale in ppm (`1_000_000` = stock).
    pub core_ppm: u32,
    /// Base/peripheral-power scale in ppm (`1_000_000` = stock).
    pub base_ppm: u32,
    /// Battery capacity in mWh; `0` means mains-powered (no battery).
    pub battery_mwh: u32,
    /// Initial battery charge in percent of capacity (ignored when
    /// mains-powered).
    pub charge_pct: u32,
}

impl HwSpec {
    /// The stock mains-powered Itsy every pre-fleet experiment ran on.
    pub const STOCK: HwSpec = HwSpec {
        core_ppm: 1_000_000,
        base_ppm: 1_000_000,
        battery_mwh: 0,
        charge_pct: 100,
    };

    /// Stable canonical tag for content addressing.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    /// Appends [`canonical`](Self::canonical)'s tag to `out`.
    fn write_canonical(&self, out: &mut String) {
        push_decimal(out, self.core_ppm.into());
        out.push(',');
        push_decimal(out, self.base_ppm.into());
        out.push(',');
        push_decimal(out, self.battery_mwh.into());
        out.push(',');
        push_decimal(out, self.charge_pct.into());
    }

    /// The power model this hardware exhibits.
    pub fn power_model(&self) -> PowerModel {
        PowerModel::new(PowerParams::default().scaled_ppm(self.core_ppm, self.base_ppm))
    }

    /// The battery this hardware carries, if battery-powered.
    pub fn battery(&self) -> Option<Battery> {
        (self.battery_mwh > 0).then(|| {
            let params = BatteryParams {
                nominal_wh: self.battery_mwh as f64 / 1_000.0,
                ..BatteryParams::default()
            };
            Battery::with_charge_fraction(params, self.charge_pct as f64 / 100.0)
        })
    }
}

impl Default for HwSpec {
    fn default() -> Self {
        HwSpec::STOCK
    }
}

/// One simulator run, fully described.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Tasks to run.
    pub workload: WorkloadSpec,
    /// Clock policy recipe.
    pub policy: PolicyDesc,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Scheduling quantum; `None` uses the kernel default (10 ms).
    pub quantum: Option<SimDuration>,
    /// Initial clock step.
    pub initial_step: StepIndex,
    /// Workload seed.
    pub seed: u64,
    /// Deadline-miss tolerance used when summarizing the run.
    pub tolerance: SimDuration,
    /// The device hardware (stock mains-powered Itsy unless a fleet
    /// generator spread it).
    pub hw: HwSpec,
    /// Simulation fidelity. [`SimFidelity::Full`] keeps the historical
    /// tick-by-tick arithmetic (and keys the cache under
    /// [`SIM_VERSION`], keeping historical goldens byte-identical);
    /// [`SimFidelity::Summary`] commits uniform spans in closed form
    /// for the fleet hot path and keys under [`SUMMARY_SIM_VERSION`].
    /// A job records no per-tick series at either.
    pub fidelity: SimFidelity,
}

impl JobSpec {
    /// A spec with the experiments' stock settings: start at the top
    /// step, 100 ms deadline tolerance, default quantum.
    pub fn new(workload: WorkloadSpec, policy: PolicyDesc, secs: u64, seed: u64) -> Self {
        JobSpec {
            workload,
            policy,
            duration: SimDuration::from_secs(secs),
            quantum: None,
            initial_step: 10,
            seed,
            tolerance: SimDuration::from_millis(100),
            hw: HwSpec::STOCK,
            fidelity: SimFidelity::Full,
        }
    }

    /// Overrides the scheduling quantum.
    pub fn with_quantum(mut self, quantum: SimDuration) -> Self {
        self.quantum = Some(quantum);
        self
    }

    /// Overrides the device hardware.
    pub fn with_hw(mut self, hw: HwSpec) -> Self {
        self.hw = hw;
        self
    }

    /// Overrides the simulation fidelity.
    pub fn with_fidelity(mut self, fidelity: SimFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// The spec's full canonical encoding. Every field participates;
    /// `SIM_VERSION` is a format/semantics fence — bump it when the
    /// simulator's behavior changes in ways that should invalidate
    /// cached results.
    ///
    /// Full-fidelity specs keep the historical `v3` encoding byte for
    /// byte (existing caches and goldens stay valid); Summary specs
    /// encode under [`SUMMARY_SIM_VERSION`] with an explicit `fid`
    /// field, so the two fidelities can never collide in the cache.
    pub fn canonical(&self) -> String {
        let mut out = String::with_capacity(CANONICAL_CAPACITY);
        self.write_canonical(&mut out);
        out
    }

    /// Appends [`canonical`](Self::canonical)'s encoding to `out`: one
    /// buffer for the whole string, which a caller keying many specs can
    /// clear and reuse. Digits are appended directly, not through
    /// `write!`.
    pub(crate) fn write_canonical(&self, out: &mut String) {
        let version = if self.fidelity.is_summary() {
            SUMMARY_SIM_VERSION
        } else {
            SIM_VERSION
        };
        out.push('v');
        push_decimal(out, version.into());
        out.push_str(";wl=");
        self.workload.write_canonical(out);
        out.push_str(";policy=");
        self.policy.write_canonical(out);
        out.push_str(";dur_us=");
        push_decimal(out, self.duration.as_micros());
        out.push_str(";quantum_us=");
        push_decimal(out, self.quantum.map_or(0, |q| q.as_micros()));
        out.push_str(";step=");
        push_decimal(out, self.initial_step as u64);
        out.push_str(";seed=");
        push_decimal(out, self.seed);
        out.push_str(";tol_us=");
        push_decimal(out, self.tolerance.as_micros());
        out.push_str(";hw=");
        self.hw.write_canonical(out);
        if self.fidelity.is_summary() {
            out.push_str(";fid=");
            out.push_str(self.fidelity.tag());
        }
    }

    /// The spec's content address.
    pub fn key(&self) -> ContentKey {
        ContentKey::of(&self.canonical())
    }

    /// Short progress-line label.
    pub fn label(&self) -> String {
        format!("{} / {}", self.workload.label(), self.policy.label())
    }

    /// Runs the simulation synchronously and summarizes it.
    pub fn execute(&self) -> JobResult {
        self.simulate(false, false, 0).0
    }

    /// Like [`JobSpec::execute`], but also folds the run into
    /// `windows` equal sim-time windows: per-window energy, busy time
    /// and deadline misses (judged against this spec's tolerance). The
    /// [`JobResult`] is bit-identical to `execute()`'s — the timeline
    /// is derived observation, never an input to the simulation.
    pub fn execute_timeline(&self, windows: u32) -> (JobResult, Vec<WindowSample>) {
        let (result, _, timeline) = self.simulate(false, false, windows);
        (result, timeline)
    }

    /// Runs the simulation on the tick-by-tick *reference* kernel loop.
    /// Full fidelity always runs that loop, so there this equals
    /// [`JobSpec::execute`] byte for byte. At Summary fidelity it is the
    /// oracle the differential suite holds the uniform-span loop to.
    /// Experiment code never calls it.
    pub fn execute_reference(&self) -> JobResult {
        self.simulate(false, true, 0).0
    }

    /// Runs the simulation with event tracing on and returns both the
    /// summary and the run's [`obs::Trace`]. Used by `repro trace`;
    /// always simulates fresh (the trace is not cached), which is what
    /// makes exports identical across cold and warm caches.
    pub fn execute_traced(&self) -> (JobResult, obs::Trace) {
        let (result, trace, _) = self.simulate(true, false, 0);
        (result, trace)
    }

    fn simulate(
        &self,
        trace: bool,
        reference: bool,
        timeline_windows: u32,
    ) -> (JobResult, obs::Trace, Vec<WindowSample>) {
        let _span = obs::span::enter("simulate");
        // No result field reads a series, the power trace, the
        // scheduler log or a deadline record, so the kernel records none
        // of them: the means come from its running sums, the deadline
        // results from its counters, and a job's memory stays flat in
        // its simulated length.
        let mut config = KernelConfig {
            duration: self.duration,
            record: false,
            deadline_tolerance: self.tolerance,
            trace,
            reference,
            fidelity: self.fidelity,
            timeline_windows,
            ..KernelConfig::default()
        };
        if let Some(q) = self.quantum {
            config.quantum = q;
        }
        let mut machine = Machine::itsy(self.initial_step, self.workload.devices());
        if self.hw != HwSpec::STOCK {
            machine.power = self.hw.power_model();
        }
        if let Some(battery) = self.hw.battery() {
            machine = machine.with_battery(battery);
        }
        let mut kernel = Kernel::new(machine, config);
        self.workload.spawn_into(&mut kernel, self.seed);
        kernel.install_policy(self.policy.build(ClockTable::sa1100()));
        let report = kernel.run();

        // The deadline log counted at the spec's tolerance, and the
        // kernel filled the timeline's misses from the same counts.
        let deadlines = &report.deadlines;
        let result = JobResult {
            energy_j: report.energy.as_joules(),
            core_energy_j: report.core_energy.as_joules(),
            mean_freq_mhz: report.mean_freq_mhz(),
            mean_utilization: report.mean_utilization(),
            misses: deadlines.misses(self.tolerance) as u64,
            max_lateness_us: deadlines.max_lateness().as_micros(),
            clock_switches: report.clock_switches,
            voltage_switches: report.voltage_switches,
            final_step: report.final_step as u64,
            frames_shown: deadlines.completions_of("frame"),
            frames_dropped: deadlines.completions_of("frame_dropped"),
            sched_dropped: report.sched_log.dropped(),
            battery_remaining: report.battery_remaining.unwrap_or(-1.0),
        };
        (result, report.trace, report.timeline)
    }
}

/// Bytes reserved for a canonical string; the golden grid's longest is
/// 217.
const CANONICAL_CAPACITY: usize = 256;

/// Bump to invalidate every cached result when simulator semantics
/// change (see [`JobSpec::canonical`]).
///
/// v2: [`JobResult`] gained `sched_dropped`, changing the cache entry
/// payload format.
///
/// v3: [`JobSpec`] gained the [`HwSpec`] hardware field (fleet
/// per-device variation) and [`JobResult`] gained `battery_remaining`.
pub const SIM_VERSION: u32 = 3;

/// Version fence for [`SimFidelity::Summary`] specs. Summary runs derive
/// means from closed-form integer accumulators, which can differ from
/// Full's `f64` running sums in the last few ULPs, and commit energy
/// once per uniform span — so they live in their own cache namespace. Full-fidelity
/// specs still encode as `v3` and keep every existing cache entry and
/// golden valid.
pub const SUMMARY_SIM_VERSION: u32 = 4;

/// The summarized outcome of one run — everything the experiment
/// harnesses consume, in cache-friendly plain-number form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobResult {
    /// Total energy, joules.
    pub energy_j: f64,
    /// Core-only energy, joules.
    pub core_energy_j: f64,
    /// Mean clock over the run, MHz.
    pub mean_freq_mhz: f64,
    /// Mean per-quantum utilization.
    pub mean_utilization: f64,
    /// Deadline misses beyond the spec's tolerance.
    pub misses: u64,
    /// Worst lateness, µs.
    pub max_lateness_us: u64,
    /// Clock-step changes.
    pub clock_switches: u64,
    /// Core-voltage changes.
    pub voltage_switches: u64,
    /// Clock step at the end of the run.
    pub final_step: u64,
    /// Frames displayed (elastic MPEG player; 0 otherwise).
    pub frames_shown: u64,
    /// Frames dropped (elastic MPEG player; 0 otherwise).
    pub frames_dropped: u64,
    /// Scheduler-log records dropped to the log's capacity bound
    /// (0 when the log is unbounded or disabled).
    pub sched_dropped: u64,
    /// Battery charge remaining at the end of the run, as a fraction of
    /// capacity; `-1.0` when the device is mains-powered (no battery).
    pub battery_remaining: f64,
}

/// How a result field's value is spelled.
#[derive(Clone, Copy)]
enum Spelling {
    /// A float's bits as `{:016x}` writes them: exactly 16 lowercase
    /// hex digits.
    Bits,
    /// An integer as `{}` writes it: decimal digits, no sign and no
    /// leading zero.
    Decimal,
}

/// The encoded fields in order: the text before each value (the `;`
/// that ends the field before it, the field's name and its `=`), and how
/// the value is spelled. [`JobResult::encode`] writes from this table
/// and [`JobResult::decode`] reads by it, so the two cannot drift apart;
/// [`JobResult::words`] lists the values in the same order.
const FIELDS: [(&str, Spelling); 13] = [
    ("energy_j=", Spelling::Bits),
    (";core_energy_j=", Spelling::Bits),
    (";mean_freq_mhz=", Spelling::Bits),
    (";mean_utilization=", Spelling::Bits),
    (";misses=", Spelling::Decimal),
    (";max_lateness_us=", Spelling::Decimal),
    (";clock_switches=", Spelling::Decimal),
    (";voltage_switches=", Spelling::Decimal),
    (";final_step=", Spelling::Decimal),
    (";frames_shown=", Spelling::Decimal),
    (";frames_dropped=", Spelling::Decimal),
    (";sched_dropped=", Spelling::Decimal),
    (";battery_remaining=", Spelling::Bits),
];

/// Bytes in the longest encoded result, every integer at 20 digits.
pub(crate) const ENCODED_CAPACITY: usize = 432;

impl JobResult {
    /// Encodes as stable `key=value` pairs. Floats are `to_bits()` hex
    /// so a cache round trip is bit-exact — decimal formatting would
    /// make warm-cache output differ from cold-run output in the last
    /// ulp.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(ENCODED_CAPACITY);
        self.write_encoded(&mut out);
        out
    }

    /// Appends [`encode`](Self::encode)'s text to `out`, digits and hex
    /// directly rather than through `write!`.
    pub(crate) fn write_encoded(&self, out: &mut String) {
        for (&(before, spelling), word) in FIELDS.iter().zip(self.words()) {
            out.push_str(before);
            match spelling {
                Spelling::Bits => push_hex16(out, word),
                Spelling::Decimal => push_decimal(out, word),
            }
        }
    }

    /// Decodes [`JobResult::encode`] output, strictly and in order: the
    /// 13 fields must come in `encode`'s order, each once, each value
    /// spelled as `encode` spells it (16 lowercase hex digits for a
    /// float's bits, decimal without sign or leading zero for an
    /// integer), and nothing may follow the last. Anything else — a
    /// missing, reordered, duplicated, unknown or trailing field, an
    /// empty value — is `None`, which the caller treats as a cache miss.
    /// Every `f64` bit pattern round-trips. The text is read in one pass:
    /// the text before each value is compared where it lies, and each
    /// value is parsed up to the byte after it, which must begin the next
    /// field or end the text.
    pub fn decode(s: &str) -> Option<Self> {
        let mut rest = s.as_bytes();
        let mut words = [0u64; 13];
        for (&(before, spelling), word) in FIELDS.iter().zip(&mut words) {
            rest = rest.strip_prefix(before.as_bytes())?;
            (*word, rest) = match spelling {
                Spelling::Bits => hex16(rest)?,
                Spelling::Decimal => decimal(rest)?,
            };
        }
        rest.is_empty().then(|| JobResult::from_words(words))
    }

    /// The fields' values in [`FIELDS`]' order, a float as its bits.
    fn words(&self) -> [u64; 13] {
        [
            self.energy_j.to_bits(),
            self.core_energy_j.to_bits(),
            self.mean_freq_mhz.to_bits(),
            self.mean_utilization.to_bits(),
            self.misses,
            self.max_lateness_us,
            self.clock_switches,
            self.voltage_switches,
            self.final_step,
            self.frames_shown,
            self.frames_dropped,
            self.sched_dropped,
            self.battery_remaining.to_bits(),
        ]
    }

    /// The result [`words`](Self::words) lists.
    fn from_words(w: [u64; 13]) -> Self {
        JobResult {
            energy_j: f64::from_bits(w[0]),
            core_energy_j: f64::from_bits(w[1]),
            mean_freq_mhz: f64::from_bits(w[2]),
            mean_utilization: f64::from_bits(w[3]),
            misses: w[4],
            max_lateness_us: w[5],
            clock_switches: w[6],
            voltage_switches: w[7],
            final_step: w[8],
            frames_shown: w[9],
            frames_dropped: w[10],
            sched_dropped: w[11],
            battery_remaining: f64::from_bits(w[12]),
        }
    }
}

/// Each byte's value as a lowercase hex digit, and `0xff` for a byte
/// that is not one.
const HEX_DIGIT: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// A float's bits from the front of `text`: exactly 16 lowercase hex
/// digits, and the bytes after them. The digits are looked up without a
/// branch, and any byte that is not one sets the top bit of `bad`.
fn hex16(text: &[u8]) -> Option<(u64, &[u8])> {
    let (digits, rest) = text.split_first_chunk::<16>()?;
    let (mut bits, mut bad) = (0u64, 0u8);
    for &b in digits {
        let digit = HEX_DIGIT[usize::from(b)];
        bad |= digit;
        bits = bits << 4 | u64::from(digit);
    }
    (bad & 0x80 == 0).then_some((bits, rest))
}

/// An integer from the front of `text` as `{}` writes it: every decimal
/// digit up to the first other byte, at least one, no leading zero and
/// no overflow; and the bytes after them.
fn decimal(text: &[u8]) -> Option<(u64, &[u8])> {
    let mut n = 0u64;
    let mut len = 0;
    while let Some(&b @ b'0'..=b'9') = text.get(len) {
        n = n.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        len += 1;
    }
    if len == 0 || (text[0] == b'0' && len > 1) {
        return None;
    }
    Some((n, &text[len..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use policies::{Hysteresis, PredictorDesc, SpeedChange};

    fn spec() -> JobSpec {
        JobSpec::new(
            WorkloadSpec::Benchmark(Benchmark::Mpeg),
            PolicyDesc::best_from_paper(),
            2,
            1,
        )
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let base = spec();
        assert_eq!(base.key(), spec().key(), "same spec, same key");
        let mut other = spec();
        other.seed = 2;
        assert_ne!(base.key(), other.key(), "seed is part of the address");
        let mut other = spec();
        other.duration = SimDuration::from_secs(3);
        assert_ne!(base.key(), other.key(), "duration is part of the address");
        let other = spec().with_quantum(SimDuration::from_millis(50));
        assert_ne!(base.key(), other.key(), "quantum is part of the address");
        let other = spec().with_hw(HwSpec {
            core_ppm: 1_010_000,
            ..HwSpec::STOCK
        });
        assert_ne!(base.key(), other.key(), "hardware is part of the address");
        let mut other = spec();
        other.policy = PolicyDesc::interval(
            PredictorDesc::AvgN(3),
            Hysteresis::BEST,
            SpeedChange::Peg,
            SpeedChange::Peg,
        );
        assert_ne!(base.key(), other.key(), "policy is part of the address");
    }

    #[test]
    fn full_canonical_is_the_historical_v3_string() {
        // Full-fidelity specs must keep encoding exactly as before the
        // fidelity field existed — every cached result and golden keys
        // off this string.
        assert_eq!(
            spec().canonical(),
            format!(
                "v3;wl=bench:MPEG;policy={};dur_us=2000000;quantum_us=0;step=10;\
                 seed=1;tol_us=100000;hw=1000000,1000000,0,100",
                PolicyDesc::best_from_paper().canonical()
            )
        );
    }

    #[test]
    fn summary_specs_key_in_their_own_version_namespace() {
        let full = spec();
        let summary = spec().with_fidelity(SimFidelity::Summary);
        assert_ne!(full.key(), summary.key(), "fidelity is part of the address");
        assert!(summary.canonical().starts_with("v4;"));
        assert!(summary.canonical().ends_with(";fid=summary"));
        // Explicit Full is the default encoding, not a third namespace.
        assert_eq!(
            spec().with_fidelity(SimFidelity::Full).canonical(),
            full.canonical()
        );
    }

    #[test]
    fn summary_execution_matches_full_on_integer_fields() {
        let full = spec().execute();
        let summary = spec().with_fidelity(SimFidelity::Summary).execute();
        assert_eq!(summary.misses, full.misses);
        assert_eq!(summary.max_lateness_us, full.max_lateness_us);
        assert_eq!(summary.clock_switches, full.clock_switches);
        assert_eq!(summary.voltage_switches, full.voltage_switches);
        assert_eq!(summary.final_step, full.final_step);
        assert_eq!(summary.frames_shown, full.frames_shown);
        assert_eq!(summary.frames_dropped, full.frames_dropped);
        assert!(
            (summary.energy_j - full.energy_j).abs() / full.energy_j < 1e-9,
            "summary energy {} vs full {}",
            summary.energy_j,
            full.energy_j
        );
        assert!((summary.mean_freq_mhz - full.mean_freq_mhz).abs() < 1e-6);
        assert!((summary.mean_utilization - full.mean_utilization).abs() < 1e-9);
        // Summary disables the sched log outright — nothing dropped.
        assert_eq!(summary.sched_dropped, 0);
    }

    #[test]
    fn result_codec_roundtrips_bit_exactly() {
        let r = JobResult {
            energy_j: 1.0 / 3.0,
            core_energy_j: f64::MIN_POSITIVE,
            mean_freq_mhz: 206.4,
            mean_utilization: 0.749999999999999,
            misses: 42,
            max_lateness_us: u64::MAX,
            clock_switches: 0,
            voltage_switches: 7,
            final_step: 10,
            frames_shown: 300,
            frames_dropped: 1,
            sched_dropped: 9,
            battery_remaining: 0.375,
        };
        let decoded = JobResult::decode(&r.encode()).expect("decodes");
        assert_eq!(r, decoded);

        // Every bit pattern round-trips, compared by bits since NaN is
        // not equal to itself: a NaN with a payload, a signalling NaN
        // with its sign set, -0.0, both infinities, and u64::MAX.
        let edge = JobResult {
            energy_j: f64::from_bits(0x7ff8_dead_beef_0001),
            core_energy_j: f64::from_bits(0xfff0_0000_0000_0001),
            mean_freq_mhz: -0.0,
            mean_utilization: f64::INFINITY,
            misses: u64::MAX,
            max_lateness_us: 0,
            clock_switches: u64::MAX,
            voltage_switches: 1,
            final_step: u64::MAX,
            frames_shown: 0,
            frames_dropped: u64::MAX,
            sched_dropped: u64::MAX,
            battery_remaining: f64::NEG_INFINITY,
        };
        let back = JobResult::decode(&edge.encode()).expect("edge values decode");
        assert_eq!(back.encode(), edge.encode());
        let floats = |r: &JobResult| {
            [
                r.energy_j,
                r.core_energy_j,
                r.mean_freq_mhz,
                r.mean_utilization,
                r.battery_remaining,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(floats(&back), floats(&edge));

        // Strict and ordered: only what `encode` writes decodes.
        let good = r.encode();
        let fields: Vec<&str> = good.split(';').collect();
        let mut reordered = fields.clone();
        reordered.swap(4, 5);
        let mut duplicated = fields.clone();
        duplicated.insert(5, fields[4]);
        let rejected = [
            reordered.join(";"),
            duplicated.join(";"),
            fields[..12].join(";"),
            fields[1..].join(";"),
            format!("{good};extra=1"),
            format!("{good};"),
            good.replace("misses=42", "misses="),
            good.replace("misses=42", "misses=042"),
            good.replace("misses=42", "misses=+42"),
            good.replace("misses=42", "misses= 42"),
            good.replace("misses=42", "misses=18446744073709551616"),
            good.replace("energy_j=3fd5", "energy_j=3FD5"),
            good.replace(
                "battery_remaining=3fd8000000000000",
                "battery_remaining=3fd8",
            ),
            format!("{good}\n"),
            "garbage".to_string(),
            "energy_j=zz".to_string(),
            String::new(),
        ];
        for bad in rejected {
            assert_eq!(JobResult::decode(&bad), None, "decoded {bad:?}");
        }
    }

    #[test]
    fn execute_matches_direct_kernel_run() {
        // The engine path and the hand-rolled runner path must agree
        // exactly — they are the same simulation.
        let r = spec().execute();
        assert!(r.energy_j > 0.0);
        let r2 = spec().execute();
        assert_eq!(r, r2, "execution is deterministic");
        // Mains-powered: the battery sentinel reports absence.
        assert_eq!(r.battery_remaining, -1.0);
    }

    #[test]
    fn hw_spread_changes_energy_and_drains_battery() {
        let stock = spec().execute();
        let hw = HwSpec {
            core_ppm: 1_100_000, // +10 % core draw
            base_ppm: 1_050_000, // +5 % base draw
            battery_mwh: 3_460,
            charge_pct: 80,
        };
        let spread = spec().with_hw(hw).execute();
        assert!(
            spread.energy_j > stock.energy_j,
            "hotter silicon must burn more: {} vs {}",
            spread.energy_j,
            stock.energy_j
        );
        // Battery attached at 80 %: drains during the run, stays valid.
        assert!(
            spread.battery_remaining > 0.0 && spread.battery_remaining < 0.8,
            "battery_remaining = {}",
            spread.battery_remaining
        );
        // Same hardware, same result: determinism holds under spread.
        assert_eq!(spread, spec().with_hw(hw).execute());
    }

    #[test]
    fn stock_hw_canonical_is_stable() {
        assert_eq!(HwSpec::STOCK.canonical(), "1000000,1000000,0,100");
        assert_eq!(HwSpec::default(), HwSpec::STOCK);
        assert!(HwSpec::STOCK.battery().is_none());
        let powered = HwSpec {
            battery_mwh: 1_730,
            charge_pct: 50,
            ..HwSpec::STOCK
        };
        let b = powered.battery().expect("battery-powered");
        assert!((b.remaining_fraction() - 0.5).abs() < 1e-12);
        assert!((b.params().nominal_wh - 1.73).abs() < 1e-12);
    }
}
