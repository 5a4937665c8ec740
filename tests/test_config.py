"""Config parsing, validation, and round-trips."""

import dataclasses
import re

import pytest

from textda.config import TrainConfig, parse_config_file
from textda.errors import ConfigError


def test_defaults_are_valid_and_weights_follow_variant():
    config = TrainConfig()
    assert config.variant == "DAS"
    w = config.effective_weights()
    assert (w.lambda1, w.lambda2, w.lambda3) == (config.lambda1, config.lambda2, config.lambda3)
    naive = TrainConfig(variant="NaiveNN")
    assert naive.effective_weights().lambda1 == 0.0


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        TrainConfig(variant="Oops")
    with pytest.raises(ConfigError):
        TrainConfig(lambda1=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(alpha=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(window=4)
    with pytest.raises(ConfigError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(mmd_sigma=0.0)


def test_dict_round_trip_and_unknown_keys():
    config = TrainConfig(lambda1=5.0, epochs=18, seed=42)
    back = TrainConfig.from_dict(dataclasses.asdict(config))
    assert back == config
    with pytest.raises(ConfigError, match="unknown config keys"):
        TrainConfig.from_dict({"lambda9": 1.0})


def test_from_strings_coercion():
    config = TrainConfig.from_strings({
        "variant": "FANN",
        "lambda1": "12.5",
        "epochs": "7",
        "mmd_sigma": "none",
    })
    assert config.variant == "FANN"
    assert config.lambda1 == 12.5
    assert config.epochs == 7
    assert config.mmd_sigma is None
    assert TrainConfig.from_strings({"mmd_sigma": "2.5"}).mmd_sigma == 2.5
    with pytest.raises(ConfigError, match="epochs"):
        TrainConfig.from_strings({"epochs": "seven"})
    with pytest.raises(ConfigError, match="unknown config key"):
        TrainConfig.from_strings({"lambda9": "1"})


@pytest.mark.parametrize("mmd_sigma", [None, 0.75])
def test_from_strings_round_trips_every_field(mmd_sigma):
    config = TrainConfig(
        variant="MMD-baseline", lambda1=1.5, lambda2=0.25,
        lambda3=2.5, alpha=0.3, learning_rate=1e-3, epochs=7, batch_size=11, seed=13,
        window=5, hidden=17, embedding_dim=19, dropout_rate=0.1,
        vocab_size=123, n_dev=9, max_doc_len=77,
        mmd_sigma=mmd_sigma,
    )
    back = TrainConfig.from_strings({k: str(v) for k, v in dataclasses.asdict(config).items()})
    assert back == config
    changed = {k for k, v in dataclasses.asdict(config).items() if v != getattr(TrainConfig(), k)}
    assert changed | {"mmd_sigma"} == set(dataclasses.asdict(config))


@pytest.mark.parametrize("key", ["distance_loss", "bootstrap_from_epoch1", "rmsprop_rho", "rmsprop_eps",
                                 "l1_eps", "max_norm", "balance_source", "eval_batch"])
def test_removed_settings_are_unknown_keys(key):
    # J's distance follows the variant; the optimizer and L1 epsilons, the max norm and the
    # scoring batch are the functions' own defaults; the source batches are always class-balanced
    with pytest.raises(ConfigError, match=re.escape(f"unknown config keys: [{key!r}]")):
        TrainConfig.from_strings({key: "1"})


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment line\n"
        "variant = DAS-EM\n"
        "\n"
        "lambda2 = 0.5\n"
        "epochs=9\n",
        encoding="utf-8",
    )
    raw = parse_config_file(path)
    assert raw == {"variant": "DAS-EM", "lambda2": "0.5", "epochs": "9"}
    config = TrainConfig.from_strings(raw)
    assert config.variant == "DAS-EM" and config.lambda2 == 0.5 and config.epochs == 9


def test_parse_config_file_errors(tmp_path):
    missing = tmp_path / "none.conf"
    with pytest.raises(ConfigError, match="not found"):
        parse_config_file(missing)
    bad = tmp_path / "bad.conf"
    bad.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_file(bad)
    dup = tmp_path / "dup.conf"
    dup.write_text("epochs = 3\nepochs = 4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(dup)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrainConfig) if f.type in ("float", "float | None")]


def test_float_fields_cover_the_loss_and_optimizer_settings():
    assert {"lambda1", "lambda2", "lambda3", "learning_rate", "mmd_sigma"} <= set(FLOAT_FIELDS)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_values_are_rejected_naming_the_key(name, raw):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        TrainConfig.from_strings({name: raw})
