"""Two-sample density ratio estimation with additive tree ensembles trained
under the balancing loss: boosting point estimates and generalized-Bayesian
posterior inference."""

from .boost import (
    BoostConfig,
    EnsembleModel,
    fit,
    predict_log_ratio,
)
from .data import (
    CutGrid,
    DataError,
    TwoSampleDataset,
    build_cut_grid,
    load_dataset,
    load_labeled_dataset,
)
from .gibbs import (
    GibbsConfig,
    PosteriorDraws,
    run_sampler,
    summarize,
    update_tau,
)
from .loss import (
    DivergedModelError,
    finite_sample_loss,
    hellinger_split_score,
    optimal_leaf_value,
    rebalance,
    row_masses,
)
from .simulate import (
    Scenario,
    generate,
    make_scenario,
    symmetrized_mse,
    true_log_ratio,
)
from .tree import DecisionTree, TreePrior, split_probability

__version__ = "0.1.0"
