"""PubChem PUG-REST fetcher for SDF records by compound id.

Network access goes through an injected transport: a callable taking a URL
and returning (status_code, body_bytes). Tests supply fakes; the real
urllib transport is only constructed on demand by the CLI. The base URL can
be overridden with the TIERGAE_PUBCHEM_URL environment variable; the retry
count and the timeout are fixed.
"""

from __future__ import annotations

import os
from typing import Callable

from .errors import NotFoundError, TransportError

DEFAULT_BASE_URL = "https://pubchem.ncbi.nlm.nih.gov/rest/pug"
BASE_URL_ENV_VAR = "TIERGAE_PUBCHEM_URL"
RETRIES = 1  # repeats after a transport failure or a status other than 200 and 404
TIMEOUT_S = 30.0  # of each GET

Transport = Callable[[str], tuple[int, bytes]]


def base_url() -> str:
    return (os.environ.get(BASE_URL_ENV_VAR) or DEFAULT_BASE_URL).rstrip("/")


def sdf_url(cid: int) -> str:
    return f"{base_url()}/compound/cid/{int(cid)}/record/SDF"


def urllib_transport() -> Transport:
    """Real HTTP GET; never used by the test suite. urllib is imported
    here, so importing the package does not load it."""
    import urllib.error
    import urllib.request

    def get(url: str) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(url, timeout=TIMEOUT_S) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # has a status, not a failure
            return exc.code, exc.read() or b""

    return get


def fetch_pubchem_sdf(cid: int, transport: Transport) -> bytes:
    """One GET (plus at most RETRIES repeat attempts) for one CID."""
    cid = int(cid)
    if cid < 1:
        raise NotFoundError(f"cid {cid} is not a valid PubChem compound id")
    url = sdf_url(cid)
    last_failure = ""
    for _ in range(1 + RETRIES):
        try:
            status, body = transport(url)
        except Exception as exc:
            last_failure = f"transport failed for cid {cid}: {exc}"
            continue
        if status == 200:
            return body
        if status == 404:
            raise NotFoundError(f"cid {cid} not found (HTTP 404 from {url})")
        last_failure = f"cid {cid}: HTTP {status} from {url}"
    raise TransportError(last_failure)
