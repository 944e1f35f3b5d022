"""`RunConfig` bounds `epochs` by `tgae.MAX_EPOCHS`, since the history CSV
holds a row per tier and epoch. A count past it is a ConfigError when the
config is built: by the constructor, by `dataclasses.replace`, from a
config file or from the `--epochs` flag, where `train` exits 2 before it
draws a weight."""

from dataclasses import replace

import pytest

from tiergae import cli
from tiergae.cli import cmd_ingest, main
from tiergae.errors import ConfigError
from tiergae.tgae import MAX_EPOCHS, RunConfig

from conftest import VANILLIN_SDF

PAST = [MAX_EPOCHS + 1, 2**63, 10**400]


def epochs_error(value: int) -> str:
    return f"config field 'epochs': must be at most {MAX_EPOCHS}, got {value}"


@pytest.mark.parametrize("value", PAST)
def test_run_config_refuses_epochs_past_the_bound(value):
    for build in (lambda: RunConfig(epochs=value), lambda: replace(RunConfig(), epochs=value)):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == epochs_error(value)
    assert RunConfig(epochs=MAX_EPOCHS).epochs == MAX_EPOCHS  # the bound itself is valid


@pytest.mark.parametrize("value", PAST)
def test_train_with_epochs_past_the_bound_exits_2(tmp_path, capsys, monkeypatch, value):
    corpus = cmd_ingest([VANILLIN_SDF], tmp_path / "corpus.json")

    def build(*args):
        raise AssertionError("weights drawn for an epoch count past the bound")

    monkeypatch.setattr(cli, "make_tier_models", build)
    out = tmp_path / "m.json"
    assert main(["train", str(corpus), "--epochs", str(value), "--out", str(out)]) == 2
    assert epochs_error(value) in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"epochs = {value}\n")
    assert main(["train", str(corpus), "--config", str(config), "--out", str(out)]) == 2
    assert epochs_error(value) in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [corpus, config]
