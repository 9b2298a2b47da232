"""Likelihood-based hierarchical jet clustering.

A tractable toy decay-cascade model defines an exact log-likelihood for
any binary clustering of an observed particle set.  Clustering is a
deterministic MDP whose per-merge reward is that log-likelihood, and
this package provides baselines (random, greedy, beam search), a
PUCT-guided MCTS planner, an exact dynamic-programming oracle for small
events, imitation-trained neural merge priors, and an experiment
harness with strict cost accounting.
"""

from .costs import PS_EVALUATIONS
from .env import (
    Action,
    ClusterState,
    action_table,
    is_terminal,
    reset,
    step,
    tree_from_history,
    tree_from_state,
)
from .harness import (
    DESK_CONFIG,
    EventRecord,
    RunResult,
    compare,
    evaluate,
    generate,
    generate_events,
    load_events,
    save_weights,
    write_events,
)
from .planners import (
    MctsConfig,
    SearchNode,
    cluster_beam,
    cluster_greedy,
    cluster_mcts,
    cluster_policy,
    cluster_random,
    fixed_policy,
)
from .policy import (
    NeuralPolicy,
    PolicyWeights,
    load_weights,
    policy_forward,
    policy_loss_and_grad,
    train_bc,
    train_mcts_policy,
    truth_actions,
)
from .rng import make_rng
from .shower import (
    FourMomentum,
    ShowerConfig,
    Splitting,
    Tree,
    TreeNode,
    invariant_mass_sq,
    sample_shower,
    sample_truncated_exp,
    splitting_log_likelihood,
    tree_log_likelihood,
    truncated_exp_log_density,
    two_body_decay,
)
from .trellis import exact_mle

__version__ = "0.1.0"
