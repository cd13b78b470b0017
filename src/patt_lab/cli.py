"""The command line of the pipeline: its grammar, the config table and its
check, and dispatch. It holds no stage: ``main`` imports ``report`` for the
``report`` stage and ``stages``, and numpy with it, for the other four, so a
config check and the ``report`` stage load neither numpy nor argparse.

Configuration is a flat ``key = value`` file whose keys are the fields of
``SynthConfig`` and ``TrainConfig`` plus ``_CLI_DEFAULTS``; ``load_config``
rejects an unknown key and checks every value before a stage reads or
writes a data file. All randomness derives from the ``seed`` key, so a
stage run again writes the same bytes. ``_read`` reads every input file.
"""

from __future__ import annotations

import math
import os
import sys

from .config import TAIL_FRACTION, SynthConfig, TrainConfig, check_fields, config_fields

__all__ = ["main", "entry"]

_COMMANDS = ("gen-data", "train", "calibrate", "eval", "report")
USAGE = (f"usage: patt-lab {{{','.join(_COMMANDS)}}} --config FILE [--out DIR] [--seed N]\n"
         "--out and --seed override the config's out_dir and seed; --opt=VALUE works too\n")

# config keys that scale a training step's losses, gradients or update
_STEP_KEYS = ("learning_rate", "sgd_momentum", "tau", "epsilon", "alpha", "beta", "oe_gamma")

# the keys that no config class reads; per_class 0 means "smallest training
# class count"
_CLI_DEFAULTS = {
    "out_dir": "runs/default",
    "per_class": 0,
    "tail_fraction": TAIL_FRACTION,
    "score": "energy",
    "use_calibration": "auto",
}

# key -> default; the default's type decides how the value string is parsed
DEFAULTS = {name: default for cls in (SynthConfig, TrainConfig)
            for name, default in config_fields(cls)}
DEFAULTS.update(_CLI_DEFAULTS)


class CliError(Exception):
    """Raised for config and file problems; rendered as one stderr line."""


def _parse_value(key: str, text: str):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        low = text.lower()
        if low not in ("true", "false"):
            raise CliError(f"config key '{key}' wants true/false, got {text!r}")
        return low == "true"
    if isinstance(default, str):
        return text
    try:
        if isinstance(default, tuple):
            return tuple(int(part) for part in text.split(","))
        if isinstance(default, float):
            value = float(text)
            if not math.isfinite(value):
                raise CliError(f"config key '{key}' must be finite, got {text!r}")
            return value
        value = int(text)
    except ValueError:
        raise CliError(f"config key '{key}' wants a number, got {text!r}") from None
    # an optional size (input_dim) is written 0 for None
    return None if default is None and value == 0 else value


def _build(cls, cfg):
    return cls(**{k: cfg[k] for k, _ in config_fields(cls)})


def load_config(path, seed=None) -> dict:
    """Parse a key=value file over the defaults, apply the ``--seed``
    override and check every key."""
    if not os.path.isfile(path):
        raise CliError(f"missing config file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().removeprefix("\ufeff").splitlines()  # a BOM is no key
    except UnicodeDecodeError:
        raise CliError(f"{path}: not UTF-8 text") from None
    cfg = dict(DEFAULTS)
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in DEFAULTS:
            raise CliError(f"{path}:{lineno}: unknown config key '{key}'")
        cfg[key] = _parse_value(key, value)
    if seed is not None:
        cfg["seed"] = seed
    try:
        _build(SynthConfig, cfg)
        _build(TrainConfig, cfg)
        check_fields(cfg, (
            ("out_dir", cfg["out_dir"] != "", "a path"),
            ("per_class", cfg["per_class"] >= 0, ">= 0"),
            ("tail_fraction", 0.0 < cfg["tail_fraction"] < 1.0, "in (0, 1)"),
            ("score", cfg["score"] in ("energy", "msp"), "energy or msp"),
            ("use_calibration", cfg["use_calibration"] in ("auto", "on", "off"),
             "auto, on or off"),
        ))
    except ValueError as exc:
        raise CliError(f"bad config: {exc}") from None
    return cfg


# the stage that writes each input file, named when the file is missing
_WRITERS = {"dataset file": "gen-data", "checkpoint": "train", "attention file": "calibrate",
            "scores file": "eval", "report file": "eval"}


def _read(path, what, read, *args):
    """``read(path, *args)``, the one reader of every input file: a missing
    file, or one that ``read`` refuses, is one ``CliError`` naming the file."""
    if not os.path.isfile(path):
        raise CliError(f"missing {what}: {path} (run {_WRITERS[what]} first)")
    try:
        return read(path, *args)
    except (ValueError, MemoryError, OverflowError) as exc:
        # an n_classes beyond memory or int64 fails numpy's class count
        raise CliError(f"bad {what} {path}: {exc}") from None


def _parse_args(argv):
    """The command, config, out and seed of ``argv``; a usage error raises ``CliError``."""
    words, opts, args = [], dict.fromkeys(("--config", "--out", "--seed")), iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        if not arg.startswith("-"):
            words.append(arg)
        elif name not in opts:  # an abbreviation too
            raise CliError(f"unknown option {name!r}")
        elif not eq and (value := next(args, None)) is None:
            raise CliError(f"{name} needs a value")
        else:
            opts[name] = value  # the last of a repeated option
    if len(words) != 1 or words[0] not in _COMMANDS:
        raise CliError(f"want one command of {', '.join(_COMMANDS)}, got {words or 'none'}")
    if opts["--config"] is None:
        raise CliError("--config FILE is required")
    seed = opts["--seed"]
    try:
        return words[0], opts["--config"], opts["--out"], None if seed is None else int(seed)
    except ValueError:
        raise CliError(f"--seed wants an integer, got {seed!r}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return 0
    try:
        command, config, out, seed = _parse_args(argv)
    except CliError as exc:
        print(f"error: {exc} (see patt-lab --help)", file=sys.stderr)
        return 2
    try:
        if out == "":
            raise CliError("--out must be a path, got ''")
        cfg = load_config(config, seed=seed)
        out_dir = out if out is not None else cfg["out_dir"]
        if command == "report":
            from .report import cmd_report
            cmd_report(out_dir)
        else:
            from .stages import run
            run(command, cfg, out_dir)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    code = main()
    # every output file is closed in a with block before main returns, so
    # the process ends here once both streams are flushed: teardown (the
    # exit-time collection over the objects numpy and the package leave
    # alive, the module cleanup) is left to the operating system. main
    # itself changes nothing about the exit of in-process callers.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    # run the package's copy of this module: its CliError is the one stages raise
    from patt_lab.cli import entry as package_entry
    package_entry()
