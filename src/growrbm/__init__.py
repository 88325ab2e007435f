"""Self-structuring RBMs for time-series data.

Energy-based sequence models whose hidden layer grows while gradients
keep fluctuating, shrinks when units fall silent, sparsifies under
forgetting penalties, and stacks itself into a deep network when one
layer is not enough.
"""
from .adapt import (AdaptConfig, ForgettingConfig, GradientStats,
                    StructureController, add_forgetting_, apply_annihilation,
                    generation_scores, maybe_generate)
from .checkpoint import (load_checkpoint, load_train_state, save_checkpoint,
                         save_train_state)
from .config import RunConfig, parse_config, parse_config_text
from .data import (SequenceDataset, augment_parity, load_jsonl,
                   random_patterns, synth_cycle, write_jsonl)
from .dbn import (Dbn, LayerGenConfig, LayerTotals, should_generate_layer,
                  train_adaptive_dbn, train_adaptive_rbm)
from .errors import (CapacityError, CheckpointError, ConfigError,
                     DataFormatError, DimensionError, GrowRbmError,
                     NumericError, StructureError)
from .harness import evaluate_model, run_eval, run_sample, run_training
from .log import TrainLog
from .metrics import cross_entropy_per_bit, fraction_correct
from .numerics import RngStream, sample_bernoulli, sigmoid
from .rbm import (CdConfig, Rbm, RbmGradient, cd_step, energy,
                  hidden_conditional, log_likelihood_exact,
                  log_likelihood_gradient_exact, log_partition_exact,
                  prob_exact, visible_conditional)
from .rnn_dbn import (RnnDbn, deterministic_hidden_sequence,
                      predict_next_deep, train_adaptive_rnn_dbn)
from .rnn_rbm import (RnnRbm, RnnRbmGradient, bptt_gradients, predict_next,
                      sequence_cost_exact, sequence_cost_gradient_exact,
                      state_update, temporal_biases, train_adaptive_rnn_rbm,
                      unroll)

__version__ = "0.1.0"
