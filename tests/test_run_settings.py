"""The run settings are declared once, as the fields of `RunConfig`: the
`train` flags, the config file keys and the example script's flags all
come from them."""

import argparse
from dataclasses import fields

import pytest

from tiergae.cli import build_parser, load_config_file, resolve_config
from tiergae.errors import ConfigError
from tiergae.tgae import MODELS, RunConfig

# the flags `train` has always had, in field order
RUN_FLAGS = ["--model", "--seed", "--epochs", "--lr", "--hidden", "--d-z", "--kl-weight",
             "--k"]


def train_parser() -> argparse.ArgumentParser:
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return subs.choices["train"]


def test_train_flags_are_the_run_config_fields():
    options = {a.option_strings[-1]: a for a in train_parser()._actions
               if a.option_strings and a.dest != "help"}
    assert list(options) == RUN_FLAGS + ["--config", "--out"]
    for f in fields(RunConfig):
        action = options["--" + f.name.replace("_", "-")]
        assert (action.dest, action.type, action.default) == (f.name, type(f.default), None)
        assert action.choices == (MODELS if f.name == "model" else None)
    assert (options["--config"].type, options["--out"].type) == (None, None)


def test_the_config_file_takes_the_same_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{f.name} = {f.default}\n" for f in fields(RunConfig)))
    assert load_config_file(path) == {f.name: f.default for f in fields(RunConfig)}
    assert resolve_config(path) == RunConfig()
    # the two flags that are not settings are not config keys
    for key in ("config", "out"):
        path.write_text(f"{key} = x\n")
        with pytest.raises(ConfigError, match=f"unknown config field '{key}'"):
            load_config_file(path)
