//! Downstream tasks supported by RITA (Appendix A.7): classification, imputation,
//! self-supervised pretraining + few-label fine-tuning, and forecasting. All of them
//! train through the unified adaptive engine in [`trainer`], which owns the epoch loop,
//! length-bucketed batching, and the §5.2 batch-size schedule.

pub mod classification;
pub mod forecasting;
pub mod imputation;
pub mod pretrain;
pub mod trainer;

pub use classification::Classifier;
pub use forecasting::{evaluate_forecast, persistence_forecast_mse, ForecastMetrics};
pub use imputation::Imputer;
pub use pretrain::{finetune_classifier, pretrain, train_from_scratch, PretrainOutcome};
pub use trainer::{
    timed, train_task, train_task_resumable, AdaptiveBatchConfig, BatchSizeDecision,
    BatchSizePolicy, EpochMemory, EpochMetrics, TrainConfig, TrainReport, TrainTask,
};
