//! Extension: spiking-neural-network decoders (Section 7 future work,
//! following Hueber et al.).
//!
//! Converts the MLP decoder into a rate-coded SNN and asks the same
//! question as Fig. 10: how many channels can each SoC host? The answer
//! depends on the SNN's activity level — sparse activity makes
//! event-driven accumulates far cheaper than clocked MACs; dense
//! activity erases the advantage.

use std::path::Path;

use mindful_core::budget::power_budget;
use mindful_core::pool::Scheduler;
use mindful_core::regimes::{standard_split_designs, SplitDesign};
use mindful_dnn::infer::Network;
use mindful_dnn::integration::IntegrationConfig;
use mindful_dnn::models::{ModelFamily, APPLICATION_RATE, BASE_CHANNELS, OUTPUT_LABELS};
use mindful_dnn::snn::{SnnConfig, SnnNetwork};
use mindful_plot::{AsciiTable, Csv, LineChart, Series};

use crate::error::Result;
use crate::output::Artifacts;

/// Activity levels swept by the study.
pub(crate) const ACTIVITIES: [f64; 4] = [0.05, 0.10, 0.25, 0.50];

/// Timesteps per inference for the rate-coded conversion.
pub(crate) const TIMESTEPS: u32 = 8;

/// Max channels per SoC at each activity level, plus the MLP reference.
#[derive(Debug, Clone)]
pub(crate) struct SnnRow {
    /// Table 1 id.
    pub(crate) id: u8,
    /// SoC display name.
    pub(crate) name: String,
    /// Max channels with the dense-MAC MLP (Fig. 10 reference).
    pub(crate) mlp_max: Option<u64>,
    /// Max channels with the SNN at each of [`ACTIVITIES`].
    pub(crate) snn_max: [Option<u64>; 4],
}

/// The generated study.
#[derive(Debug, Clone)]
pub(crate) struct SnnStudy {
    /// One row per wireless SoC.
    pub(crate) rows: Vec<SnnRow>,
    /// Break-even activity of the conversion (same for every SoC).
    pub(crate) break_even: f64,
    /// Whether the dense MLP the conversion starts from actually ran
    /// (batched over the shared pool) and produced finite label outputs
    /// identical to per-sample execution.
    pub(crate) dense_reference_ok: bool,
}

/// Total implant power with the SNN decoder at `channels`.
fn snn_feasible(
    design: &SplitDesign,
    channels: u64,
    activity: f64,
    config: &IntegrationConfig,
) -> Result<bool> {
    let arch = ModelFamily::Mlp.architecture(channels)?;
    let snn = SnnNetwork::from_architecture(
        &arch,
        SnnConfig {
            activity,
            timesteps: TIMESTEPS,
            inference_rate: APPLICATION_RATE,
        },
    )?;
    let ratio = channels as f64 / design.reference_channels() as f64;
    let sensing = design.sensing_power() * ratio;
    let area = design.sensing_area() * ratio + design.non_sensing_area();
    let comm = mindful_core::throughput::computation_centric_rate(
        OUTPUT_LABELS,
        config.sample_bits,
        APPLICATION_RATE,
    ) * config.energy_per_bit;
    let total = sensing + snn.power_lower_bound(config.node) + comm;
    Ok(total <= power_budget(area))
}

fn max_channels_snn(
    design: &SplitDesign,
    activity: f64,
    config: &IntegrationConfig,
    step: u64,
    limit: u64,
) -> Result<Option<u64>> {
    let mut best = None;
    let mut n = design.reference_channels();
    while n <= limit {
        if snn_feasible(design, n, activity, config)? {
            best = Some(n);
            n += step;
        } else {
            break;
        }
    }
    Ok(best)
}

/// Sweeps SNN feasibility for SoCs 1–8 across activity levels.
///
/// # Errors
///
/// Propagates evaluation errors.
pub(crate) fn generate() -> Result<SnnStudy> {
    let config = IntegrationConfig::paper_45nm();
    let mut rows = Vec::new();
    for design in standard_split_designs() {
        let mlp_max = mindful_dnn::integration::max_channels(
            &design,
            ModelFamily::Mlp,
            &config,
            64,
            1 << 15,
        )?;
        let mut snn_max = [None; 4];
        for (idx, &activity) in ACTIVITIES.iter().enumerate() {
            snn_max[idx] = max_channels_snn(&design, activity, &config, 64, 1 << 15)?;
        }
        rows.push(SnnRow {
            id: design.scaled().spec().id(),
            name: design.scaled().name().to_owned(),
            mlp_max,
            snn_max,
        });
    }
    let arch = ModelFamily::Mlp.architecture(1024)?;
    let break_even = SnnNetwork::from_architecture(
        &arch,
        SnnConfig {
            activity: 0.1,
            timesteps: TIMESTEPS,
            inference_rate: APPLICATION_RATE,
        },
    )?
    .break_even_activity();
    Ok(SnnStudy {
        rows,
        break_even,
        dense_reference_ok: dense_reference_runs()?,
    })
}

/// Executes the rate-coded conversion's dense starting point — the MLP
/// at the 128-channel base scale — through `forward_batch` on a
/// default-sized scheduler and checks the outputs are finite and batch-invariant.
fn dense_reference_runs() -> Result<bool> {
    let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS)?;
    let net = Network::with_seeded_weights(arch, 7);
    let width = net.architecture().input_values() as usize;
    let frames: Vec<Vec<f32>> = (0..8)
        .map(|s| {
            (0..width)
                .map(|i| ((i * 7 + s) as f32 * 0.021).cos())
                .collect()
        })
        .collect();
    let batched = net.forward_batch(&frames, &Scheduler::with_default_threads())?;
    let ok = batched.len() == frames.len()
        && batched
            .iter()
            .all(|out| out.len() as u64 == OUTPUT_LABELS && out.iter().all(|v| v.is_finite()))
        && frames
            .iter()
            .zip(&batched)
            .all(|(x, y)| net.forward(x).map(|z| z == *y).unwrap_or(false));
    Ok(ok)
}

/// Writes the comparison table, sweep chart, and summary.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn render(study: &SnnStudy, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut ascii = AsciiTable::new(&[
        "SoC", "MLP max", "SNN @5%", "SNN @10%", "SNN @25%", "SNN @50%",
    ]);
    let mut csv = Csv::new(&["soc", "mlp_max", "snn_5", "snn_10", "snn_25", "snn_50"]);
    let show = |n: Option<u64>| n.map_or("-".to_owned(), |v| v.to_string());
    for row in &study.rows {
        let cells = [
            format!("{} ({})", row.id, row.name),
            show(row.mlp_max),
            show(row.snn_max[0]),
            show(row.snn_max[1]),
            show(row.snn_max[2]),
            show(row.snn_max[3]),
        ];
        ascii.push(&cells);
        csv.push(&cells);
    }

    // Power-vs-activity curve for BISC at 1024 channels.
    let mut chart = LineChart::new(
        "Extension: SNN power vs activity (MLP-equivalent at 1024 ch, 45 nm)",
        "Activity",
        "Power [mW]",
    );
    let arch = ModelFamily::Mlp.architecture(1024)?;
    let node = IntegrationConfig::paper_45nm().node;
    let mut snn_points = Vec::new();
    let mut step_activity = 0.02;
    while step_activity <= 1.0 {
        let snn = SnnNetwork::from_architecture(
            &arch,
            SnnConfig {
                activity: step_activity,
                timesteps: TIMESTEPS,
                inference_rate: APPLICATION_RATE,
            },
        )?;
        snn_points.push((step_activity, snn.power_lower_bound(node).milliwatts()));
        step_activity += 0.02;
    }
    let dense = SnnNetwork::from_architecture(
        &arch,
        SnnConfig {
            activity: 0.5,
            timesteps: TIMESTEPS,
            inference_rate: APPLICATION_RATE,
        },
    )?
    .dense_equivalent_power(node)
    .milliwatts();
    chart.push_series(Series::new("SNN lower bound", snn_points));
    chart.reference_line(dense, "dense MAC equivalent");

    artifacts.report("Extension: SNN decoders vs the dense MLP (Hueber et al. direction)\n");
    artifacts.report(ascii.to_string());
    artifacts.report(format!(
        "synaptic break-even activity: {:.0}% ({} timesteps, accumulate = {:.0}% of a MAC)",
        study.break_even * 100.0,
        TIMESTEPS,
        mindful_dnn::snn::ACC_ENERGY_FRACTION * 100.0,
    ));
    artifacts.report(format!(
        "dense MLP reference executed (batched, {BASE_CHANNELS} channels): {}",
        if study.dense_reference_ok {
            "ok"
        } else {
            "FAILED"
        },
    ));
    artifacts.write_file(dir, "snn.csv", csv.as_str())?;
    artifacts.write_file(dir, "snn_power.svg", &chart.to_svg())?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_snn_hosts_more_channels_than_the_mlp() {
        let study = generate().unwrap();
        let mut sparse_wins = 0;
        let mut comparable = 0;
        for row in &study.rows {
            if let (Some(mlp), Some(snn)) = (row.mlp_max, row.snn_max[0]) {
                comparable += 1;
                if snn > mlp {
                    sparse_wins += 1;
                }
            }
        }
        assert!(comparable > 0);
        assert_eq!(
            sparse_wins, comparable,
            "5% activity must beat the dense MLP everywhere comparable"
        );
    }

    #[test]
    fn denser_activity_never_helps() {
        let study = generate().unwrap();
        for row in &study.rows {
            for pair in row.snn_max.windows(2) {
                if let (Some(lo), Some(hi)) = (pair[1], pair[0]) {
                    assert!(hi >= lo, "SoC {}: more activity, fewer channels", row.id);
                }
            }
        }
    }

    #[test]
    fn break_even_is_the_closed_form() {
        let study = generate().unwrap();
        assert!((study.break_even - 1.0 / (8.0 * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn dense_reference_actually_runs() {
        let study = generate().unwrap();
        assert!(study.dense_reference_ok);
    }

    #[test]
    fn render_writes_artifacts() {
        let dir = std::env::temp_dir().join("mindful-snn-test");
        let artifacts = render(&generate().unwrap(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 2);
        assert!(artifacts.report_text().contains("break-even"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
