//! E3: GenPack energy savings versus non-generational schedulers (§VI:
//! "up to 23% energy savings ... for typical data-center workloads").

use securecloud_genpack::schedulers::{
    FirstFitScheduler, GenPackScheduler, RandomScheduler, Scheduler, SpreadScheduler,
};
use securecloud_genpack::sim::{simulate, SimConfig, SimResult};
use securecloud_genpack::workload::{JobArrival, WorkloadConfig};

use crate::report::Cell::{Fixed, Str, Unit};
use crate::report::{Column, Ctx, Report};

/// Parameters of one energy-comparison run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyExperiment {
    /// Cluster size.
    pub servers: usize,
    /// Trace duration in hours.
    pub hours: u64,
    /// Short/batch job churn per hour.
    pub churn_per_hour: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for EnergyExperiment {
    fn default() -> Self {
        EnergyExperiment {
            servers: 60,
            hours: 24,
            churn_per_hour: 150.0,
            seed: 1,
        }
    }
}

/// Result bundle: one [`SimResult`] per scheduler plus derived savings.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyComparison {
    /// Per-scheduler results (random, spread, first-fit, genpack).
    pub results: Vec<SimResult>,
    /// GenPack savings vs the strongest baseline (first-fit), percent.
    pub savings_vs_best_baseline: f64,
    /// GenPack savings vs spread, percent.
    pub savings_vs_spread: f64,
}

/// The experiment's job trace and cluster: every scheduler and every
/// GenPack variant is simulated over the same pair.
fn trace_and_cluster(experiment: EnergyExperiment) -> (Vec<JobArrival>, SimConfig) {
    let workload = WorkloadConfig {
        duration: experiment.hours * 3600,
        churn_per_hour: experiment.churn_per_hour,
        system_services: experiment.servers / 2,
        long_running: (experiment.servers * 4) / 3,
        seed: experiment.seed,
        ..WorkloadConfig::default()
    };
    let config = SimConfig {
        servers: experiment.servers,
        ..SimConfig::default()
    };
    (workload.generate(), config)
}

/// Runs all four schedulers over the same trace.
#[must_use]
pub fn run(experiment: EnergyExperiment) -> EnergyComparison {
    let (trace, config) = trace_and_cluster(experiment);
    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(RandomScheduler::new(experiment.seed)),
        Box::new(SpreadScheduler),
        Box::new(FirstFitScheduler),
        Box::new(GenPackScheduler::new()),
    ];
    let results: Vec<SimResult> = schedulers
        .iter_mut()
        .map(|s| simulate(s.as_mut(), &trace, config))
        .collect();
    let genpack = results.last().expect("four schedulers ran").clone();
    let first_fit = &results[2];
    let spread = &results[1];
    EnergyComparison {
        savings_vs_best_baseline: genpack.savings_vs(first_fit),
        savings_vs_spread: genpack.savings_vs(spread),
        results,
    }
}

/// The E3 table and the headline savings.
pub fn report(_ctx: &Ctx) -> Vec<Report> {
    let comparison = run(EnergyExperiment::default());
    let (vs_first_fit, vs_spread) = (
        comparison.savings_vs_best_baseline,
        comparison.savings_vs_spread,
    );
    let report = Report::new(
        "genpack",
        "== E3: GenPack energy savings (§VI) ==
(paper: up to 23% energy savings for typical data-center workloads)",
        &comparison.results,
        [
            Column::new("scheduler", 10, |r| Str(r.scheduler.clone())),
            Column::new("energy kWh", 11, |r| Fixed(r.energy_kwh(), 1)),
            Column::new("avg srv on", 11, |r| Fixed(r.avg_servers_on, 1)),
            Column::new("migrations", 11, |r| r.migrations.into()),
            Column::new("rejections", 11, |r| r.rejections.into()),
            Column::new("overloads", 10, |r| r.overload_ticks.into()),
        ],
    );
    vec![Report {
        meta: vec![
            ("savings_vs_first_fit_percent", Fixed(vs_first_fit, 1)),
            ("savings_vs_spread_percent", Fixed(vs_spread, 1)),
        ],
        footer: format!(
            "genpack savings: {vs_first_fit:.1}% vs first-fit (best baseline), {vs_spread:.1}% vs spread"
        ),
        ..report
    }]
}

/// E3c: savings as a function of workload churn — substantiating the
/// paper's "up to 23 %": the saving depends on how much consolidation
/// opportunity the workload offers.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPoint {
    /// Short/batch arrivals per hour.
    pub churn_per_hour: f64,
    /// GenPack energy, kWh.
    pub genpack_kwh: f64,
    /// Best-baseline (first-fit) energy, kWh.
    pub baseline_kwh: f64,
    /// Savings vs the best baseline, percent.
    pub savings_percent: f64,
}

/// Sweeps churn rates at a fixed cluster size.
#[must_use]
pub fn churn_sweep(churns: &[f64], servers: usize, hours: u64) -> Vec<ChurnPoint> {
    churns
        .iter()
        .map(|&churn_per_hour| {
            let comparison = run(EnergyExperiment {
                servers,
                hours,
                churn_per_hour,
                seed: 1,
            });
            let genpack = comparison.results.last().expect("ran");
            let baseline = &comparison.results[2];
            ChurnPoint {
                churn_per_hour,
                genpack_kwh: genpack.energy_kwh(),
                baseline_kwh: baseline.energy_kwh(),
                savings_percent: comparison.savings_vs_best_baseline,
            }
        })
        .collect()
}

/// The E3c table.
pub fn churn_report(_ctx: &Ctx) -> Vec<Report> {
    let points = churn_sweep(&[40.0, 80.0, 150.0, 250.0, 400.0], 60, 24);
    vec![Report::new(
        "genpack_sweep",
        "== E3c: GenPack savings vs workload churn (\"up to 23%\") ==",
        &points,
        [
            Column::new("churn/h", 10, |p| Fixed(p.churn_per_hour, 0)),
            Column::new("genpack kWh", 12, |p| Fixed(p.genpack_kwh, 1)),
            Column::new("first-fit kWh", 13, |p| Fixed(p.baseline_kwh, 1)),
            Column::new("savings", 9, |p| Unit(p.savings_percent, 1, "%")),
        ],
    )]
}

/// Ablation of DESIGN.md: GenPack variants with pieces disabled, isolating
/// where the savings come from.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Variant label.
    pub variant: &'static str,
    /// Simulation result.
    pub result: SimResult,
}

/// Runs the GenPack ablation: full, no-consolidation (promotion only), and
/// conservative thresholds.
#[must_use]
pub fn ablation(experiment: EnergyExperiment) -> Vec<AblationResult> {
    let (trace, config) = trace_and_cluster(experiment);
    let mut variants: Vec<(&'static str, GenPackScheduler)> = vec![
        ("genpack (full)", GenPackScheduler::new()),
        (
            "no consolidation",
            GenPackScheduler::new().with_consolidation_threshold(0.0),
        ),
        (
            "slow promotion (1h/6h)",
            GenPackScheduler::new().with_promotion_secs(3600, 6 * 3600),
        ),
        (
            "aggressive consolidation (0.8)",
            GenPackScheduler::new().with_consolidation_threshold(0.8),
        ),
    ];
    variants
        .iter_mut()
        .map(|(variant, scheduler)| AblationResult {
            variant,
            result: simulate(scheduler, &trace, config),
        })
        .collect()
}

/// The E3b table.
pub fn ablation_report(_ctx: &Ctx) -> Vec<Report> {
    let entries = ablation(EnergyExperiment::default());
    vec![Report::new(
        "ablation",
        "== E3b: GenPack ablation (design-choice isolation) ==",
        &entries,
        [
            Column::new("variant", 30, |e| e.variant.into()),
            Column::new("energy kWh", 11, |e| Fixed(e.result.energy_kwh(), 1)),
            Column::new("avg srv on", 11, |e| Fixed(e.result.avg_servers_on, 1)),
            Column::new("migrations", 11, |e| e.result.migrations.into()),
        ],
    )]
}
