"""Desk-scale differentiable feature filtering and semantic reconstitution."""

from .backbone import Backbone, BackboneConfig
from .data import DataConfig, SyntheticDataset, make_synthetic
from .filters import AmbiguityParams, FilterArtifacts, NoiseParams
from .model import ForwardResult, SFINet
from .reconstitution import SirConfig
from .tensor import CompGraph, ConfigError, GraphError, NonFiniteError, ShapeError, Tensor
from .train import TrainConfig, cosine_lr, sgd_momentum_step, total_loss, train

__all__ = [
    "AmbiguityParams", "Backbone", "BackboneConfig", "CompGraph", "ConfigError",
    "DataConfig", "FilterArtifacts", "ForwardResult", "GraphError", "NoiseParams",
    "NonFiniteError", "SFINet", "ShapeError", "SirConfig",
    "SyntheticDataset", "Tensor", "TrainConfig", "cosine_lr", "make_synthetic",
    "sgd_momentum_step", "total_loss", "train",
]
