"""``tools/digest.py``, the hash of every output over a fixed corpus, loaded here by path."""

import importlib.util
import sys
from pathlib import Path

DIGEST_FILE = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def test_a_record_that_cannot_be_fitted_is_one_error_entry(monkeypatch):
    # Loading puts the checkout's src/ and perfbench/ first on sys.path; monkeypatch restores the old list.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("evtkit_digest", DIGEST_FILE)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest._record_outputs("x", [1.0, 1.0, 1.0]) == {
        "x/error": b"NumericalError: no distribution family could be fitted: sample standard deviation is zero"
    }
