import os
import subprocess
import sys
from pathlib import Path

import pytest

from tiergae.errors import NotFoundError, TransportError
from tiergae.pubchem import (
    BASE_URL_ENV_VAR,
    DEFAULT_BASE_URL,
    base_url,
    fetch_pubchem_sdf,
    sdf_url,
)


class RecordingTransport:
    """Scripted fake: pops one (status, body) or exception per call."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.urls = []

    def __call__(self, url):
        self.urls.append(url)
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def test_sdf_url_pattern():
    assert (
        sdf_url(1183)
        == "https://pubchem.ncbi.nlm.nih.gov/rest/pug/compound/cid/1183/record/SDF"
    )


def test_base_url_precedence(monkeypatch):
    monkeypatch.delenv(BASE_URL_ENV_VAR, raising=False)
    assert base_url() == DEFAULT_BASE_URL
    monkeypatch.setenv(BASE_URL_ENV_VAR, "http://mirror.example/pug/")
    assert base_url() == "http://mirror.example/pug"
    assert sdf_url(7, "http://direct.example") == (
        "http://direct.example/compound/cid/7/record/SDF"
    )
    # explicit argument beats the environment
    assert base_url("http://direct.example") == "http://direct.example"


def test_fetch_success(vanillin_sdf_bytes):
    t = RecordingTransport([(200, vanillin_sdf_bytes)])
    body = fetch_pubchem_sdf(1183, t)
    assert body == vanillin_sdf_bytes
    assert t.urls == [sdf_url(1183)]


def test_fetch_uses_base_override():
    t = RecordingTransport([(200, b"ok")])
    fetch_pubchem_sdf(5, t, base="http://mirror.example")
    assert t.urls == ["http://mirror.example/compound/cid/5/record/SDF"]


def test_404_raises_not_found_without_retry():
    t = RecordingTransport([(404, b""), (200, b"never reached")])
    with pytest.raises(NotFoundError):
        fetch_pubchem_sdf(999999999, t)
    assert len(t.urls) == 1  # a definite 404 is not retried


def test_invalid_cid_rejected_locally():
    t = RecordingTransport([])
    for bad in (0, -5):
        with pytest.raises(NotFoundError):
            fetch_pubchem_sdf(bad, t)
    assert t.urls == []  # no request is ever made


def test_transport_exception_retried_then_raised():
    t = RecordingTransport([OSError("timed out"), OSError("timed out again")])
    with pytest.raises(TransportError) as exc:
        fetch_pubchem_sdf(7, t, retries=1)
    assert len(t.urls) == 2
    assert "7" in str(exc.value)


def test_retry_recovers_from_transient_failure():
    t = RecordingTransport([OSError("blip"), (200, b"data")])
    assert fetch_pubchem_sdf(7, t, retries=1) == b"data"
    assert len(t.urls) == 2


def test_server_error_retried():
    t = RecordingTransport([(503, b""), (200, b"data")])
    assert fetch_pubchem_sdf(7, t, retries=1) == b"data"


def test_server_error_exhausts_retries():
    t = RecordingTransport([(500, b""), (500, b""), (500, b"")])
    with pytest.raises(TransportError) as exc:
        fetch_pubchem_sdf(7, t, retries=2)
    assert len(t.urls) == 3
    assert "500" in str(exc.value)


def test_zero_retries_single_attempt():
    t = RecordingTransport([OSError("down")])
    with pytest.raises(TransportError):
        fetch_pubchem_sdf(7, t, retries=0)
    assert len(t.urls) == 1


def test_importing_the_cli_leaves_urllib_unloaded():
    # only the real transport needs urllib; building it loads urllib, importing does not
    code = ("import sys, tiergae.cli\n"
            "print('urllib.request' in sys.modules)\n"
            "tiergae.pubchem.urllib_transport()\n"
            "print('urllib.request' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
