"""PubChem PUG-REST fetcher for SDF records by compound id.

Network access goes through an injected transport: a callable taking a URL
and returning (status_code, body_bytes). Tests supply fakes; the real
urllib transport is only constructed on demand by the CLI. The base URL can
be overridden with the TIERGAE_PUBCHEM_URL environment variable.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from .errors import NotFoundError, TransportError

DEFAULT_BASE_URL = "https://pubchem.ncbi.nlm.nih.gov/rest/pug"
BASE_URL_ENV_VAR = "TIERGAE_PUBCHEM_URL"

Transport = Callable[[str], tuple[int, bytes]]


def base_url(override: Optional[str] = None) -> str:
    return (override or os.environ.get(BASE_URL_ENV_VAR) or DEFAULT_BASE_URL).rstrip("/")


def sdf_url(cid: int, base: Optional[str] = None) -> str:
    return f"{base_url(base)}/compound/cid/{int(cid)}/record/SDF"


def urllib_transport(timeout: float = 30.0) -> Transport:
    """Real HTTP GET; never used by the test suite. urllib is imported
    here, so importing the package does not load it."""
    import urllib.error
    import urllib.request

    def get(url: str) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # has a status, not a failure
            return exc.code, exc.read() or b""

    return get


def fetch_pubchem_sdf(cid: int, transport: Transport,
                      base: Optional[str] = None, retries: int = 1) -> bytes:
    """One GET (plus at most `retries` repeat attempts) for one CID."""
    cid = int(cid)
    if cid < 1:
        raise NotFoundError(f"cid {cid} is not a valid PubChem compound id")
    url = sdf_url(cid, base)
    attempts = 1 + max(0, int(retries))
    last_failure: Optional[str] = None
    for _ in range(attempts):
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
    raise TransportError(last_failure or f"cid {cid}: no attempts made")
