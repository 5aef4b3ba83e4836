//! IPCMOS: models and experiments of the DATE 2002 verification case study.
//!
//! The Asynchronous Interlocked Pipelined CMOS (IPCMOS) architecture
//! (Schuster et al., ISSCC 2000) clocks large datapaths at GHz frequencies
//! with a pulse-based interlocking scheme. This crate provides everything
//! that is specific to the case study:
//!
//! * [`stage_circuit`] / [`stage_model`] — a reconstructed transistor-level
//!   control stage (strobe switch, strobe, reset and valid paths) with the
//!   short-circuit invariants and delay structure of §5 of the paper,
//! * [`in_env`] / [`out_env`] — the pulse-driven environments of Fig. 12,
//! * [`a_in`] / [`a_out`] / [`spec`] — the untimed abstractions of Fig. 10
//!   and the interface specification `S`,
//! * [`table_1`] and `experiment_1` … `experiment_5` — the assume–guarantee
//!   proof of §4.2 plus the transistor-level verification of §5,
//! * [`flat_pipeline`] and [`simulate`] — flat (abstraction-free) pipelines
//!   for the scaling comparison and the pulse-level simulator behind the
//!   Fig. 7 waveform, whose [`asap_run`] is also the verifier's witness run,
//! * [`intro_example`] — the introductory example of Fig. 1/2.
//!
//! # Example
//!
//! ```no_run
//! // Run the first obligation of Table 1 (abstractions satisfy the spec).
//! let verdict = ipcmos::experiment_1()?;
//! assert!(verdict.is_verified());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
mod experiments;
mod export;
mod intro;
mod sim;
mod stage;

pub use env::{a_in, a_out, in_env, out_env, spec, Interface};
pub use experiments::{
    abstract_pipeline, experiment_1, experiment_1_with, experiment_2, experiment_2_with,
    experiment_3, experiment_3_with, experiment_4, experiment_4_with, experiment_5,
    experiment_5_with, flat_pipeline, flat_pipeline_persistent_events, table_1, table_1_with,
    ExperimentError,
};
pub use export::{pipeline_stg, StgPipelineModel};
pub use intro::intro_example;
pub use sim::{asap_run, simulate, SimEvent, SimTrace};
pub use stage::{stage_circuit, stage_model, transistor_count, StageSignals};
