import pathlib
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))

# Tier-1 draws the same examples on every run ("suite"). "explore" draws
# new ones, from the seed given by --hypothesis-seed or a random one.
settings.register_profile(
    "explore",
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile("suite", settings.get_profile("explore"), derandomize=True)
settings.load_profile("suite")

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS


@pytest.fixture(scope="session")
def load_corpus():
    from proofmean.syntax import parse_file

    def load(name: str):
        path = CORPUS / name
        return parse_file(path.read_text(encoding="utf-8"), default_name=path.stem)

    return load
