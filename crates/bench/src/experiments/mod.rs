//! One module per table/figure of the paper's evaluation (§VIII), plus
//! the Fig. 1 background chart, the ablations, the extension benches and
//! the calibration matrix. Each module's `run` regenerates the artifact
//! and returns printable rows with the paper's reported values alongside
//! the measured ones; the six gated modules also return their sweep rows
//! and headline metrics.

pub mod ablation_attention;
pub mod ablation_buffers;
pub mod ablation_cache_policy;
pub mod ablation_comm;
pub mod ablation_lut;
pub mod ablation_multihead;
pub mod ablation_psum;
pub mod ablation_psum_policy;
pub mod ablation_quant;
pub mod calibrate;
pub mod dse;
pub mod fig01_accuracy;
pub mod fig02_feature_sparsity;
pub mod fig10_alpha_rounds;
pub mod fig11_gamma_ablation;
pub mod fig12_baseline_speedup;
pub mod fig13_cross_platform;
pub mod fig14_energy_breakdown;
pub mod fig15_energy_efficiency;
pub mod fig16_weighting_balance;
pub mod fig17_beta_designs;
pub mod fig18_optimizations;
pub mod ingest_throughput;
pub mod online_serving;
pub mod parallel_speedup;
pub mod scaleout;
pub mod serving_throughput;
pub mod table2_datasets;
pub mod table3_configs;
pub mod table4_scaling;
pub mod table4_throughput;
pub mod tiered_cache;
