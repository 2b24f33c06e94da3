"""Optoelectronic delay-based reservoir computing: map dynamics,
time-multiplexed reservoir simulation with delayed feedback, ridge
readouts, benchmarks and hyperparameter search."""

__version__ = "0.1.0"

from ._backend import active_backend
from .dynamics import (FixedPoint, OscillatorParams, Regime,
                       bifurcation_sweep, classify_regime, cobweb,
                       fixed_points_of_iterate, integrate_dde, iterate,
                       net_gain, step_map)
from .exceptions import (ConfigurationError, DataFormatError, DelayRCError,
                         NumericsError, SingularMatrixError)
from .hyperopt import (SearchSpace, Study, Trial, load_study, resonance_sweep,
                       run_study, save_study, tpe_suggest)
from .pipeline import evaluate_series, make_eval
from .readout import (ReadoutWeights, classify_sequences, nmse, nrmse,
                      predict, train_ridge)
from .reservoir import (ReservoirConfig, make_input_mask, mask_input,
                        run_reservoir, transition_structure)
from .tasks import (LabeledSeries, gen_narma10, gen_sine_square,
                    gen_synthetic_vowels, encode_multiplexed,
                    load_japanese_vowels, split_train_test)
