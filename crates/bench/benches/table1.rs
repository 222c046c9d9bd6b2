//! Table 1: per-application neural network architecture and execution
//! times on each hardware deployment target.
//!
//! The full-model per-tile times are the paper's measured values (the
//! calibration anchor of the `kodan-hw` latency model); the harness also
//! prints the derived per-tile costs of Kodan's smaller specialized
//! models on each platform.

use kodan_bench::{banner, f, row, s};
use kodan_hw::latency::LatencyModel;
use kodan_hw::targets::HwTarget;
use kodan_ml::quant::INT_OP_COST;
use kodan_ml::zoo::ModelArch;

fn main() {
    banner(
        "Table 1: per-tile processing time (ms)",
        "Full reference models (paper-measured) per hardware target",
    );
    row(&[
        s("app"),
        s("architecture"),
        s("1070 Ti"),
        s("i7-7800"),
        s("Orin 15W"),
    ]);
    for arch in ModelArch::ALL {
        let cells: Vec<String> = HwTarget::ALL
            .iter()
            .map(|&t| {
                let ms = LatencyModel::new(t).full_model_tile_time(arch).as_seconds() * 1000.0;
                f(ms)
            })
            .collect();
        row(&[
            s(&format!("App {}", arch.app_number())),
            s(arch.paper_name()),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }

    banner(
        "Table 1 (derived): specialized-model per-tile time (ms)",
        "Kodan's context-specialized variants at their ops ratio (1/3 width)",
    );
    row(&[s("app"), s("1070 Ti"), s("i7-7800"), s("Orin 15W")]);
    for arch in ModelArch::ALL {
        let ratio = ((arch.hidden_units() / 3).max(3)) as f64 / arch.hidden_units() as f64;
        let cells: Vec<String> = HwTarget::ALL
            .iter()
            .map(|&t| {
                let ms = LatencyModel::new(t)
                    .specialized_tile_time(arch, ratio)
                    .as_seconds()
                    * 1000.0;
                f(ms)
            })
            .collect();
        row(&[
            s(&format!("App {}", arch.app_number())),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }

    banner(
        "Table 1 (derived): quantized specialized-model per-tile time (ms)",
        "Same specialized variants on the i16/i32 fast path (int ops priced at INT_OP_COST per f64 MAC)",
    );
    row(&[
        s("app"),
        s("ops ratio"),
        s("1070 Ti"),
        s("i7-7800"),
        s("Orin 15W"),
    ]);
    for arch in ModelArch::ALL {
        let ratio = ((arch.hidden_units() / 3).max(3)) as f64 / arch.hidden_units() as f64;
        // The quantized path runs the same MAC structure, so its ops
        // ratio is the specialized ratio scaled by the integer-op cost —
        // the same factor `SpecializedModel::effective_ops_ratio` applies
        // when the runtime prices a quantized model.
        let quantized_ratio = ratio * INT_OP_COST;
        let cells: Vec<String> = HwTarget::ALL
            .iter()
            .map(|&t| {
                let ms = LatencyModel::new(t)
                    .specialized_tile_time(arch, quantized_ratio)
                    .as_seconds()
                    * 1000.0;
                f(ms)
            })
            .collect();
        row(&[
            s(&format!("App {}", arch.app_number())),
            s(&format!("{quantized_ratio:.3}")),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
}
