"""Capsule networks with approximate routing and feedback-agreement training.

Submodules are imported on first attribute access so that `import encapnet`
stays free of numeric imports; the CLI relies on that to pin BLAS thread
counts before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "Tensor": "tensor",
    "seeded_rng": "tensor",
    "squash": "capsules",
    "margin_loss": "capsules",
    "predict": "capsules",
    "CapFC": "capsules",
    "dynamic_routing": "routing",
    "CapNetLayer": "routing",
    "histogram_sums": "routing",
    "routing_histogram": "routing",
    "CapConv": "capconv",
    "CapConvSpec": "capconv",
    "EncapModule": "capconv",
    "sinkhorn_plan": "sinkhorn",
    "sinkhorn_divergence": "sinkhorn",
    "FeedbackUnit": "sinkhorn",
    "NetworkConfig": "network",
    "StemSpec": "network",
    "ModuleSpec": "network",
    "build_network": "network",
    "parameter_table": "network",
    "Adam": "optim",
    "TrainConfig": "training",
    "train_model": "training",
    "evaluate": "training",
    "DataConfig": "data",
    "load_idx": "data",
    "save_idx": "data",
    "synth_generate": "data",
    "batches": "data",
    "save_checkpoint": "checkpoint",
    "load_checkpoint": "checkpoint",
    "restore_model": "checkpoint",
    "load_config": "configfile",
    "parse_config_text": "configfile",
    "ShapeError": "errors",
    "ConfigError": "errors",
    "DomainError": "errors",
    "DataFormatError": "errors",
    "TrainingDiverged": "errors",
    "GraphReleased": "errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
