"""Payload pins: each command's JSON payload, minus timing and provenance,
hashes to the digest recorded when the pin was added.

A refactor that claims byte-identical payloads is checked here.  A change
that alters results on purpose must say why and re-record the digests
below.  The stream contract ties the sampled bits to numpy's Generator
(NEP 19), so the pins hold only under the numpy version they were recorded
with.
"""

import hashlib
import json

import numpy as np
import pytest

import oulab.cli as cli

NUMPY_VERSION = "2.4.6"

SMALL = ("--seed", "7", "--n", "300", "--M", "64")

# (argv, sha256 of the payload without timing and provenance)
PINS = [
    (("constants", "--format", "json", "--lambda-grid", "log:1e-4:1e3:64"),
     "87495a795100235e519a216eecd43201546f786d873f24481bfc6afaa49ce5bd"),
    (("verify-prop21", *SMALL, "--lambda", "1", "--b", "const:0.5"),
     "808bbbced21569c00b19fc212c2e239a51586099f68ef29aa248411fa2aeb0f5"),
    (("verify-prop21", *SMALL, "--lambda", "1", "--b", "weighted:cos"),
     "7873f0b88540ea925e1110d7ff31ee188109a18dee74484bce4c5a2585406972"),
    (("verify-thm23", *SMALL, "--spectrum", "1,4", "--b", "weighted:sin"),
     "0bd9ab56d4ee290ea07ab816cad9624f17c093d92bd7e89bec8f89cb71aaf013"),
    (("verify-thm23", *SMALL, "--spectrum", "1,4", "--b", "weighted:sign"),
     "bc6516a9a8d5899133b95b250244fcf2813c2f740e85021e20116ca8dad464c4"),
    (("verify-thm23", *SMALL, "--spectrum", "1,4", "--b", "zero"),
     "6a9c16cc11c1f1d067e60a2d720dcf5b356fc1eff34a449de525942c9a6536f5"),
    (("verify-thm23", *SMALL, "--spectrum", "1,4", "--b", "time:sin_pi"),
     "8a32556dacd239a634e9eb173af85dbc574cc27756badacea338ba1e865a1cc4"),
    (("verify-thm23", *SMALL, "--spectrum", "1,4", "--b", "const:0.3"),
     "c6a887f71223d2e9fd75fa9319906d08a09bc5fb466d3fa95648c52c169c2a1e"),
    (("verify-thm23", *SMALL, "--spectrum", "1,4", "--b", "weighted:tanh:omega=2.5"),
     "ba8ec840a357b8e501d2695c645a6074ff6502e8eb31bcb7957df3dd5efe3ff3"),
    (("concentration", *SMALL, "--h1", "e1:sin_pi_t", "--x0", "0.3,-0.2", "--r", "0.25", "--u", "0.75"),
     "7c935918bed2e44c83234c083bcebadb6daeefb7b8f78e5763b419f3e1643c9d"),
    # rows with 0 < empirical < 1: the stderr has ddof = 1 and a row passes on its upper bound
    (("concentration", *SMALL, "--b", "weighted:sign", "--h1", "e1:const:0.05", "--etas", "0.1,0.2,0.5"),
     "93f216d35f467909127ea5c71d9e3d69ca55215f828f09c8a5cd5e1e700df36d"),
    (("moments", *SMALL, "--x", "0.2,0", "--y", "0,0.1", "--ps", "1,2"),
     "2f12999bdcce0498fc003d76d0f47253dd9f7fd2b5b0ab3670bd4a9f3a1dcdf8"),
    (("decomposition", "--seed", "7", "--n", "300", "--lambda", "1", "--m-list", "16,64,256"),
     "71f4f675b74ff080c6fbde55ddb2c8dbeb795e3a7ac03c510065c77f998a9914"),
]


def payload_digest(capsys, argv) -> str:
    """sha256 of the JSON payload of one in-process run, timing and provenance removed."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    del doc["timing"], doc["provenance"]
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION, reason=f"pins recorded under numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("argv, digest", PINS, ids=[" ".join(a[:1] + a[-2:]) for a, _ in PINS])
def test_payload_is_pinned(capsys, argv, digest):
    assert payload_digest(capsys, argv) == digest


# (argv, sha256 of the --dump CSV); each run dumps the first 8 paths it sampled
DUMP_PINS = [
    (("verify-prop21", *SMALL, "--lambda", "1", "--b", "weighted:cos"),
     "21c8a60ec70c58c239899a87e44b423634e2a3c41e8bd4405b275d1b43435507"),
    (("verify-thm23", *SMALL, "--spectrum", "1,4", "--b", "weighted:sin", "--ell", "0.5"),
     "e2a5b77b3dfcebe309e129fa58c49f7706bec49f8ec9225b27aa570f9e8e1007"),
    (("concentration", *SMALL, "--h1", "e1:sin_pi_t", "--x0", "0.3,-0.2", "--r", "0.25", "--u", "0.75"),
     "8aaa764e691f874793f779c0ad3d140e85f4cc472374df51e740ff969e0fb986"),
    (("moments", *SMALL, "--x", "0.2,0", "--y", "0,0.1", "--ps", "1,2", "--x0", "0.4,0", "--u", "0.5"),
     "de4ea4a459f0ae03b51a6370b9a0507d8c836d045b7a7d23d2b2cee56aad229c"),
]


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION, reason=f"pins recorded under numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("argv, digest", DUMP_PINS, ids=[a[0] for a, _ in DUMP_PINS])
def test_dump_is_pinned(capsys, tmp_path, argv, digest):
    dump = tmp_path / "paths.csv"
    assert cli.main([*argv, "--dump", str(dump)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest
