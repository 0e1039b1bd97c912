"""Off-dynamics inverse reinforcement learning toolkit."""

from .buffers import DemoSet, ReplayBuffer, load_demos, save_demos
from .dd import ClassifierPair, DDConfig, classifier_loss, dd_for_transitions
from .envs import (
    SOURCE,
    TARGET,
    Batch,
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
    disc_loss,
    gail_disc_loss,
    gail_policy_reward,
    policy_reward,
    reward_heatmap,
)
from .nets import Adam, FlatParams, Mlp, load_blocks, load_params, save_blocks
from .policy import GaussianPolicy, PolicyOptConfig, PolicyOptimizer, ValueNet, evaluate

__version__ = "0.1.0"
