"""nvfp4sim: a bit-accurate NumPy simulator of fully-quantized NVFP4 training.

Layers: fpcodec (formats + rounding) -> blockquant (one block-view pipeline
for 1x16 groups and 16x16 tiles) -> matrixio (matrix files) ->
hadamard (random Hadamard transforms) -> qlinear (six-quantizer linear layer
with outlier retention) -> oscillation (flip-risk tracking and suppression)
-> trainer (desk-scale training harness) -> cli (experiment commands).
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "blockquant",
    "cli",
    "fpcodec",
    "hadamard",
    "matrixio",
    "metrics",
    "models",
    "optim",
    "oscillation",
    "qlinear",
    "tasks",
    "trainer",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
