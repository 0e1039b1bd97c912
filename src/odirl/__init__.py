"""Off-dynamics inverse reinforcement learning toolkit."""

from .buffers import DemoSet, ReplayBuffer, load_demos, save_demos
from .dd import ClassifierPair, DDConfig, classifier_loss, dd_value
from .envs import (
    SOURCE,
    TARGET,
    EnvSpec,
    LinkChainConfig,
    LinkChainEnv,
    PointMazeConfig,
    PointMazeEnv,
    Trajectory,
    Transition,
    make_linkchain_pair,
    make_pointmaze_pair,
    rollout,
    rollouts,
)
from .irl import (
    Discriminator,
    GailDiscriminator,
    disc_logit,
    disc_loss,
    gail_disc_loss,
    gail_policy_reward,
    policy_reward,
    reward_heatmap,
)
from .nets import Adam, FlatParams, Mlp, finite_difference_check, load_params, save_params
from .policy import GaussianPolicy, PolicyOptConfig, PolicyOptimizer, ValueNet, evaluate

__version__ = "0.1.0"
