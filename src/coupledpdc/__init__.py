"""Coherence of two continuously coupled parametric downconverters.

The package builds the device as a 4x4 Bogoliubov transfer matrix,
computes vacuum-input moments and the mutual signal coherence, extracts
the two equivalent substituting schemes (four converters, or two
converters between mixers), analyzes the which-way information carried by
the idler modes, and cross-validates everything against an exact
truncated photon-number-basis evolution.

The package exports what each module lists in its ``__all__``; the
batched engine (``transfer_stack``, ``four_converter_stack``,
``evolve_stack`` and the rest) is imported from its module.

``import coupledpdc`` imports no module of the package.  A submodule
(``coupledpdc.device``) is imported when first asked for, alone; the
first exported name asked for, or ``__all__`` (as by ``from coupledpdc
import *``), imports every library module and binds all their exports.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    import sys
    public = not name.startswith("_")
    if public:
        # __import__, unlike importlib.import_module, shows the module's
        # time under python -X importtime
        try:
            __import__(f"{__name__}.{name}")
            return sys.modules[f"{__name__}.{name}"]
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    if (public or name == "__all__") and "__all__" not in globals():
        exports = []
        for part in ("config", "device", "moments", "decompose",
                     "whichway", "fock", "errors"):
            __import__(f"{__name__}.{part}")
            module = sys.modules[f"{__name__}.{part}"]
            globals().update({n: getattr(module, n) for n in module.__all__})
            exports += module.__all__
        globals()["__all__"] = exports
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
