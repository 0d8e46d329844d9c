import json

import numpy as np
import pytest

from tiltrate import load_config
from tiltrate.errors import ConfigError

BSS_DOC = {
    "source_probs": [0.5, 0.5],
    "coding_probs": [0.5, 0.5],
    "distortion": [[0.0, 1.0], [1.0, 0.0]],
}


def write(tmp_path, name, content):
    f = tmp_path / name
    f.write_text(content)
    return str(f)


class TestJsonForm:
    def test_rd_problem(self, tmp_path):
        cfg = load_config(write(tmp_path, "p.json", json.dumps(BSS_DOC)))
        problem = cfg.rd_problem()
        np.testing.assert_allclose(problem.source_probs, [0.5, 0.5])
        np.testing.assert_allclose(problem.distortion, [[0.0, 1.0], [1.0, 0.0]])

    def test_channel_block(self, tmp_path):
        doc = {"channel": {"transition": [[0.9, 0.1], [0.1, 0.9]], "input_probs": [0.5, 0.5]}}
        cfg = load_config(write(tmp_path, "c.json", json.dumps(doc)))
        ch = cfg.channel()
        np.testing.assert_allclose(ch.transition, [[0.9, 0.1], [0.1, 0.9]])

    def test_sniffs_json_without_extension(self, tmp_path):
        cfg = load_config(write(tmp_path, "noext", json.dumps(BSS_DOC)))
        assert cfg.rd_problem().num_source_letters == 2

    def test_unknown_field(self, tmp_path):
        doc = dict(BSS_DOC, extra=[1.0])
        with pytest.raises(ConfigError, match="unknown config field 'extra'"):
            load_config(write(tmp_path, "p.json", json.dumps(doc)))

    def test_unknown_channel_subfield(self, tmp_path):
        doc = {"channel": {"transition": [[1.0]], "input_probs": [1.0], "oops": 1}}
        with pytest.raises(ConfigError, match="channel.oops"):
            load_config(write(tmp_path, "p.json", json.dumps(doc)))

    def test_duplicate_key(self, tmp_path):
        text = json.dumps(BSS_DOC)[:-1] + ', "coding_probs": [0.9, 0.1]}'
        with pytest.raises(ConfigError, match="duplicate config field 'coding_probs'"):
            load_config(write(tmp_path, "p.json", text))

    @pytest.mark.parametrize("sub, flat", [("transition", "channel_transition"),
                                           ("input_probs", "channel_input_probs")])
    def test_channel_block_and_flat_field_conflict(self, tmp_path, sub, flat):
        channel = {"transition": [[0.9, 0.1], [0.1, 0.9]], "input_probs": [0.5, 0.5]}
        doc = {"channel": channel, flat: channel[sub]}
        with pytest.raises(ConfigError, match=f"'channel.{sub}' and '{flat}'"):
            load_config(write(tmp_path, "c.json", json.dumps(doc)))

    def test_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(write(tmp_path, "p.json", "{broken"))

    def test_vector_where_matrix_expected(self, tmp_path):
        doc = dict(BSS_DOC, distortion=[0.0, 1.0])
        with pytest.raises(ConfigError, match="two-dimensional"):
            load_config(write(tmp_path, "p.json", json.dumps(doc)))

    def test_missing_field_lazily_reported(self, tmp_path):
        doc = {"source_probs": [1.0]}
        cfg = load_config(write(tmp_path, "p.json", json.dumps(doc)))
        with pytest.raises(ConfigError, match="coding_probs"):
            cfg.rd_problem()


class TestFlatForm:
    def test_round_trips_against_json(self, tmp_path):
        flat = write(
            tmp_path,
            "p.cfg",
            "\n".join(
                [
                    "# a comment",
                    "source_probs = 0.5, 0.5",
                    "coding_probs = 0.5 0.5   # trailing comment",
                    "distortion = 0, 1; 1, 0",
                ]
            ),
        )
        a = load_config(flat).rd_problem()
        b = load_config(write(tmp_path, "p.json", json.dumps(BSS_DOC))).rd_problem()
        np.testing.assert_array_equal(a.source_probs, b.source_probs)
        np.testing.assert_array_equal(a.distortion, b.distortion)

    def test_scalars(self, tmp_path):
        cfg = load_config(write(tmp_path, "p.cfg", "beta = 2.5"))
        assert cfg.effective_beta() == 2.5

    def test_temperature_derives_beta(self, tmp_path):
        cfg = load_config(write(tmp_path, "p.cfg", "k = 2.0\ntemperature = 0.25"))
        assert cfg.effective_beta() == pytest.approx(2.0)

    def test_beta_wins_over_temperature(self, tmp_path):
        cfg = load_config(write(tmp_path, "p.cfg", "beta = 3.0\ntemperature = 100.0"))
        assert cfg.effective_beta() == 3.0

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write(tmp_path, "p.cfg", "beta = 1\nbeta = 2"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            load_config(write(tmp_path, "p.cfg", "just some words"))

    def test_ragged_matrix(self, tmp_path):
        with pytest.raises(ConfigError, match="unequal"):
            load_config(write(tmp_path, "p.cfg", "distortion = 0, 1; 1"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match="could not parse"):
            load_config(write(tmp_path, "p.cfg", "source_probs = a, b"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))


class TestChainSystemFromConfig:
    def test_beta_and_k_flow_through(self, tmp_path):
        doc = dict(BSS_DOC, k=2.0, temperature=1.0)
        cfg = load_config(write(tmp_path, "p.json", json.dumps(doc)))
        system = cfg.chain_system()
        assert system.beta == pytest.approx(0.5)
        assert system.boltzmann_k == 2.0
        assert system.temperature == pytest.approx(1.0)
