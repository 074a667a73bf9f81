"""The README's config block and Python examples run as written."""

import configparser
import math
import re
from pathlib import Path

from gravsim import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    """Bodies of the README's fenced code blocks tagged ``language``."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_readme_config_block_is_the_defaults(tmp_path):
    (block,) = _blocks("ini")
    path = tmp_path / "readme.ini"
    path.write_text(block)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(block)
    # Every key the CLI knows is documented, and documented at its default.
    documented = {section: set(parser[section]) for section in parser.sections()}
    assert documented == {section: set(keys) for section, keys in cli._SCHEMA.items()}
    assert cli.load_config(str(path)) == cli.load_config(None)


def _run_example(name):
    """Run the README's Python example that uses ``name``; its globals."""
    (block,) = [b for b in _blocks("python") if name in b]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_readme_g_recovery_example():
    est = _run_example("estimate_g")["est"]
    assert abs(est.g_hat - 9.81) <= 6.0 * est.sigma_g


def test_readme_noise_example():
    result = _run_example("phase_variance_from_psd")["result"]
    assert 0.0 < result.variance < math.inf
