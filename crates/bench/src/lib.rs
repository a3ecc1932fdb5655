//! # fexiot-bench
//!
//! Experiment harness reproducing every table and figure in the paper's
//! evaluation (§IV). Each module implements one experiment, and the `src/bin`
//! binaries print paper-style rows. All experiments run scaled-down by
//! default and at paper scale with `FEXIOT_FULL=1` / `--full`.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod plot;
pub mod robustness;
pub mod scale;
pub mod table1;
pub mod table2;
pub mod table3;

pub use scale::{print_table, Scale};
