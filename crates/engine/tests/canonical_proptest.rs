//! Property test for the canonical encoders and labels: every variant
//! of every descriptor and spec, drawn with arbitrary parameters, must
//! encode and label exactly as the `write!`/`format!` spellings below
//! do. The encoders append digits directly; these references are what
//! they replaced, and every content key on disk hashes their output.

use proptest::prelude::*;

use engine::{HwSpec, JobSpec, WorkloadSpec, SIM_VERSION, SUMMARY_SIM_VERSION};
use policies::{Hysteresis, PolicyDesc, PredictorDesc, SpeedChange, VoltageRule};
use sim_core::{SimDuration, SimFidelity};
use workloads::Benchmark;

/// splitmix64: derives every field of a drawn value from one seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The `i`th draw of a seed.
fn draw(seed: u64, i: u64) -> u64 {
    mix(seed ^ mix(i))
}

/// A threshold or parameter: an arbitrary bit pattern or, one time in
/// three, a whole percentage, a value beside one, or an edge of `{:.0}`.
fn float(seed: u64) -> f64 {
    let x = mix(seed);
    let edges = [
        0.0,
        -0.0,
        0.985,
        0.005,
        1e17,
        2e19,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    match x % 6 {
        0 => (x >> 8) as f64 % 101.0 / 100.0,
        1 => edges[(x >> 8) as usize % edges.len()],
        _ => f64::from_bits(mix(x)),
    }
}

fn predictor(seed: u64) -> PredictorDesc {
    let x = draw(seed, 1);
    match x % 9 {
        0 => PredictorDesc::Past,
        1 => PredictorDesc::AvgN(x as u32),
        2 => PredictorDesc::SlidingWindow(draw(seed, 2) as usize),
        3 => PredictorDesc::Flat(float(draw(seed, 3))),
        4 => PredictorDesc::LongShort,
        5 => PredictorDesc::Aged(float(draw(seed, 4))),
        6 => PredictorDesc::Cycle,
        7 => PredictorDesc::Pattern,
        _ => PredictorDesc::Peak,
    }
}

fn speed_change(x: u64) -> SpeedChange {
    [SpeedChange::One, SpeedChange::Double, SpeedChange::Peg][(x % 3) as usize]
}

fn policy(seed: u64) -> PolicyDesc {
    let x = draw(seed, 10);
    match x % 4 {
        0 => PolicyDesc::Constant {
            step: draw(seed, 11) as usize,
            voltage_mv: draw(seed, 12) as u32,
        },
        1 => PolicyDesc::SimpleAvg {
            window: draw(seed, 13) as usize,
        },
        _ => PolicyDesc::Interval {
            predictor: predictor(draw(seed, 14)),
            hysteresis: Hysteresis {
                up: float(draw(seed, 15)),
                down: float(draw(seed, 16)),
            },
            up: speed_change(draw(seed, 17)),
            down: speed_change(draw(seed, 18)),
            voltage_rule: (draw(seed, 19) & 1 == 0).then(|| VoltageRule {
                low_at_or_below: draw(seed, 20) as usize,
            }),
        },
    }
}

fn workload(seed: u64) -> WorkloadSpec {
    let x = draw(seed, 30);
    match x % 4 {
        0 => WorkloadSpec::Benchmark(Benchmark::ALL[(x >> 8) as usize % 4]),
        1 => WorkloadSpec::WebBrowse {
            poller: (x >> 8) & 1 == 0,
        },
        2 => WorkloadSpec::MpegElastic,
        _ => WorkloadSpec::SquareWave {
            busy: draw(seed, 31),
            idle: draw(seed, 32),
        },
    }
}

fn hw(seed: u64) -> HwSpec {
    HwSpec {
        core_ppm: draw(seed, 40) as u32,
        base_ppm: draw(seed, 41) as u32,
        battery_mwh: draw(seed, 42) as u32,
        charge_pct: draw(seed, 43) as u32,
    }
}

fn job(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(workload(seed), policy(seed), 0, draw(seed, 50))
        .with_hw(hw(seed))
        .with_fidelity(if draw(seed, 51) & 1 == 0 {
            SimFidelity::Full
        } else {
            SimFidelity::Summary
        });
    spec.duration = SimDuration::from_micros(draw(seed, 52));
    spec.tolerance = SimDuration::from_micros(draw(seed, 53));
    spec.initial_step = draw(seed, 54) as usize;
    if draw(seed, 55) & 1 == 0 {
        spec = spec.with_quantum(SimDuration::from_micros(draw(seed, 56)));
    }
    spec
}

// The references: the encoders and labels as `write!` and `format!`
// spelled them.

fn ref_predictor(p: &PredictorDesc) -> String {
    match p {
        PredictorDesc::Past => "past".to_string(),
        PredictorDesc::AvgN(n) => format!("avg_n:{n}"),
        PredictorDesc::SlidingWindow(n) => format!("sliding:{n}"),
        PredictorDesc::Flat(level) => format!("flat:{:016x}", level.to_bits()),
        PredictorDesc::LongShort => "long_short".to_string(),
        PredictorDesc::Aged(k) => format!("aged:{:016x}", k.to_bits()),
        PredictorDesc::Cycle => "cycle".to_string(),
        PredictorDesc::Pattern => "pattern".to_string(),
        PredictorDesc::Peak => "peak".to_string(),
    }
}

fn ref_policy(d: &PolicyDesc) -> String {
    match d {
        PolicyDesc::Constant { step, voltage_mv } => {
            format!("constant;step={step};mv={voltage_mv}")
        }
        PolicyDesc::Interval {
            predictor,
            hysteresis,
            up,
            down,
            voltage_rule,
        } => format!(
            "interval;pred={};up_th={:016x};down_th={:016x};up={};down={};vrule={}",
            ref_predictor(predictor),
            hysteresis.up.to_bits(),
            hysteresis.down.to_bits(),
            up.label(),
            down.label(),
            match voltage_rule {
                Some(r) => format!("le{}", r.low_at_or_below),
                None => "none".to_string(),
            }
        ),
        PolicyDesc::SimpleAvg { window } => format!("simple_avg;window={window}"),
    }
}

fn ref_workload(w: &WorkloadSpec) -> String {
    match w {
        WorkloadSpec::Benchmark(b) => format!("bench:{}", b.name()),
        WorkloadSpec::WebBrowse { poller } => format!("web_browse:poller={poller}"),
        WorkloadSpec::MpegElastic => "mpeg_elastic".to_string(),
        WorkloadSpec::SquareWave { busy, idle } => format!("square:busy={busy},idle={idle}"),
    }
}

fn ref_hw(h: &HwSpec) -> String {
    format!(
        "{},{},{},{}",
        h.core_ppm, h.base_ppm, h.battery_mwh, h.charge_pct
    )
}

fn ref_job(s: &JobSpec) -> String {
    let version = if s.fidelity.is_summary() {
        SUMMARY_SIM_VERSION
    } else {
        SIM_VERSION
    };
    let mut out = format!(
        "v{version};wl={};policy={};dur_us={};quantum_us={};step={};seed={};tol_us={};hw={}",
        ref_workload(&s.workload),
        ref_policy(&s.policy),
        s.duration.as_micros(),
        s.quantum.map_or(0, |q| q.as_micros()),
        s.initial_step,
        s.seed,
        s.tolerance.as_micros(),
        ref_hw(&s.hw),
    );
    if s.fidelity.is_summary() {
        out.push_str(&format!(";fid={}", s.fidelity.tag()));
    }
    out
}

fn ref_predictor_label(p: &PredictorDesc) -> String {
    match p {
        PredictorDesc::Past => "PAST".to_string(),
        PredictorDesc::AvgN(n) => format!("AVG_{n}"),
        PredictorDesc::SlidingWindow(n) => format!("SW_{n}"),
        PredictorDesc::Flat(level) => format!("FLAT_{:.0}", level * 100.0),
        PredictorDesc::LongShort => "LONG_SHORT".to_string(),
        PredictorDesc::Aged(k) => format!("AGED_{k:.2}"),
        PredictorDesc::Cycle => "CYCLE".to_string(),
        PredictorDesc::Pattern => "PATTERN".to_string(),
        PredictorDesc::Peak => "PEAK".to_string(),
    }
}

fn ref_policy_label(d: &PolicyDesc) -> String {
    match d {
        PolicyDesc::Constant { step, voltage_mv } => {
            format!("constant step {step} @ {voltage_mv} mV")
        }
        PolicyDesc::Interval {
            predictor,
            hysteresis,
            up,
            down,
            ..
        } => format!(
            "{} {}-{} >{:.0}%/<{:.0}%",
            ref_predictor_label(predictor),
            up.label(),
            down.label(),
            hysteresis.up * 100.0,
            hysteresis.down * 100.0
        ),
        PolicyDesc::SimpleAvg { window } => format!("SIMPLE_AVG_{window}"),
    }
}

proptest! {
    #[test]
    fn encoders_and_labels_match_their_format_spellings(seed in any::<u64>()) {
        let spec = job(seed);
        prop_assert_eq!(spec.canonical(), ref_job(&spec));
        prop_assert_eq!(spec.workload.canonical(), ref_workload(&spec.workload));
        prop_assert_eq!(spec.hw.canonical(), ref_hw(&spec.hw));
        prop_assert_eq!(spec.policy.canonical(), ref_policy(&spec.policy));
        prop_assert_eq!(spec.policy.label(), ref_policy_label(&spec.policy));
        let p = predictor(seed);
        prop_assert_eq!(p.canonical(), ref_predictor(&p));
        prop_assert_eq!(p.label(), ref_predictor_label(&p));
        let h = Hysteresis { up: float(draw(seed, 60)), down: float(draw(seed, 61)) };
        prop_assert_eq!(h.to_string(), format!(">{:.0}%/<{:.0}%", h.up * 100.0, h.down * 100.0));
    }
}

/// The draws reach every variant, both fidelities, a set and an unset
/// quantum, a voltage rule and none, and both label paths; a change to
/// `draw` that lost one would leave the property vacuous there.
#[test]
fn the_draws_cover_every_variant() {
    let specs: Vec<JobSpec> = (0..2_000).map(job).collect();
    let predictors: Vec<PredictorDesc> = (0..2_000).map(predictor).collect();
    let tags: std::collections::BTreeSet<String> = predictors
        .iter()
        .map(|p| p.label().chars().take(3).collect())
        .chain(
            specs
                .iter()
                .map(|s| ref_workload(&s.workload)[..5].to_string()),
        )
        .chain(specs.iter().map(|s| ref_policy(&s.policy)[..5].to_string()))
        .collect();
    for tag in [
        "PAS", "AVG", "SW_", "FLA", "LON", "AGE", "CYC", "PAT", "PEA", "bench", "web_b", "mpeg_",
        "squar", "const", "inter", "simpl",
    ] {
        assert!(tags.contains(tag), "no draw reached {tag}");
    }
    assert!(specs.iter().any(|s| s.fidelity.is_summary()));
    assert!(specs.iter().any(|s| !s.fidelity.is_summary()));
    assert!(specs.iter().any(|s| s.quantum.is_some()));
    assert!(specs.iter().any(|s| s.quantum.is_none()));
    let rules: Vec<bool> = specs
        .iter()
        .filter_map(|s| match s.policy {
            PolicyDesc::Interval { voltage_rule, .. } => Some(voltage_rule.is_some()),
            _ => None,
        })
        .collect();
    assert!(rules.contains(&true) && rules.contains(&false));
    let labels: Vec<String> = specs.iter().map(|s| s.policy.label()).collect();
    let whole = |l: &String| {
        l.rsplit_once("%/<").is_some_and(|(_, down)| {
            down.trim_end_matches('%')
                .bytes()
                .all(|b| b.is_ascii_digit())
        })
    };
    assert!(labels.iter().any(whole), "no whole-number percentage");
    for edge in ["<-0%", "NaN%", "inf%", "00000%"] {
        assert!(
            labels.iter().any(|l| l.contains(edge)),
            "no label has {edge}"
        );
    }
}
