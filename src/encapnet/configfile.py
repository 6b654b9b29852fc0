"""INI run configs -> typed configs.

Sections: [net], [stem], [module1..N] (in order, no gaps), [train], [data].
Each value is stated once: a module's input capsule dimension is the previous
module's dim_out (the stem's, split into caps_channels capsules, for
[module1]), and the encapnet class capsules keep the last module's. Unknown
sections and keys are configuration errors so typos fail loudly instead of
silently keeping a default, and so is a key the run never reads: [net] and
[moduleN] keys are checked against the configured family's FAMILY_KEYS, and
[data] keys against the configured source's SOURCE_KEYS.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, fields

from .errors import ConfigError
from .data import DataConfig
from .network import ModuleSpec, NetworkConfig, StemSpec
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    net: NetworkConfig
    train: TrainConfig
    data: DataConfig
    text: str = ""


def _bool(v: str) -> bool:
    s = v.strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _ints(v: str) -> tuple:
    parts = [p.strip() for p in v.split(",") if p.strip()]
    return tuple(int(p) for p in parts)


def _strs(v: str) -> tuple:
    return tuple(p.strip() for p in v.split(",") if p.strip())


# tuple-valued keys holding words rather than numbers
_STRING_TUPLES = {"ot"}

_NET_SHARED = {"family", "n_classes", "image_size", "caps_channels"}
_MODULE_KEYS = {f.name for f in fields(ModuleSpec)}

# The [net] and [moduleN] keys each family reads. A key missing here is one
# the family's model never looks at.
FAMILY_KEYS = {
    "encapnet": {"net": _NET_SHARED, "module": _MODULE_KEYS},
    "capnet_dynamic": {"net": _NET_SHARED | {"class_caps_dim", "hidden_caps",
                                             "hidden_dim", "routing_iters"},
                       "module": set()},
    "vanilla_cnn": {"net": _NET_SHARED, "module": _MODULE_KEYS - {"ot"}},
}

_DATA_SHARED = {"source", "limit_train", "limit_test"}

# The [data] keys each source reads.
SOURCE_KEYS = {
    "synthetic": _DATA_SHARED | {"n_train", "n_test", "noise", "seed"},
    "idx": _DATA_SHARED | {"dir", "train_images", "train_labels",
                           "test_images", "test_labels"},
}


def _apply(section, cls, allowed=None, reader="", **fixed):
    """Build a dataclass from an INI section with type-driven casting.

    Given an allowed key set, a key outside it is rejected as one that the
    reader (a family or a data source) never reads. A value that does not
    cast and a required key left out are rejected too.
    """
    kwargs = dict(fixed)
    by_name = {f.name: f for f in fields(cls)}
    for key in section:
        if key in fixed:
            raise ConfigError(f"{key!r} is set by the loader and cannot appear in the file")
        if key not in by_name:
            raise ConfigError(f"unknown key {key!r} for {cls.__name__}")
        if allowed is not None and key not in allowed:
            raise ConfigError(f"[{section.name}] {key} is not read by {reader}")
        f = by_name[key]
        raw = section[key]
        try:
            if f.type in ("tuple", tuple):
                kwargs[key] = _strs(raw) if key in _STRING_TUPLES else _ints(raw)
            elif f.type in ("bool", bool):
                kwargs[key] = _bool(raw)
            elif f.type in ("int", int):
                kwargs[key] = int(raw)
            elif f.type in ("float", float):
                kwargs[key] = float(raw)
            else:
                kwargs[key] = raw.strip()
        except ValueError:
            raise ConfigError(
                f"[{section.name}] {key} = {raw.strip()!r} is not a valid {f.type}") from None
    missing = [f.name for f in fields(cls) if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"[{section.name}] needs {', '.join(missing)}")
    return cls(**kwargs)


def parse_config_text(text: str) -> RunConfig:
    # no interpolation: a '%' in a value (a data path, say) is a plain character
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"bad INI: {e}") from e

    if "net" not in cp:
        raise ConfigError("config needs a [net] section")

    family = cp["net"].get("family", NetworkConfig.family).strip()
    reads = FAMILY_KEYS.get(family, {})  # {}: NetworkConfig rejects the family
    family_reader = f"the {family} family"

    stem = _apply(cp["stem"], StemSpec) if "stem" in cp else StemSpec()

    mods = []
    i = 1
    while f"module{i}" in cp:
        mods.append(_apply(cp[f"module{i}"], ModuleSpec, reads.get("module"), family_reader))
        i += 1
    known = {"net", "stem", "train", "data"} | {f"module{j + 1}" for j in range(len(mods))}
    for name in cp.sections():
        if name in known:
            continue
        if name.startswith("module"):
            raise ConfigError(f"module sections must be consecutive from module1; found {name}")
        raise ConfigError(f"unknown section [{name}]")

    net = _apply(cp["net"], NetworkConfig, reads.get("net"), family_reader,
                 stem=stem, modules=tuple(mods))
    train = _apply(cp["train"], TrainConfig) if "train" in cp else TrainConfig()
    data = DataConfig()
    if "data" in cp:
        source = cp["data"].get("source", DataConfig.source).strip()
        data = _apply(cp["data"], DataConfig, SOURCE_KEYS.get(source),
                      f"source = {source}")
    return RunConfig(net=net, train=train, data=data, text=text)


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read())
