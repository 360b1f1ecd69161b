import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["walkthrough", "bulk"])
def test_traced_bench_run_is_correct(workload):
    # a short traced run: the tracer's hooks (such as len() of the PSDS
    # sweep's detections) and the CLI calls the bench makes must still work
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]


# The fixture digest and the outputs (stdout text and SHA-256 of each file)
# of one set-up pass at seed 7.  A refactor keeps every byte; a change that
# means to alter an output updates these and says why.
SETUP_PINS = {
    "walkthrough": (
        "fa75ffac77e25b91cf685acb679654f3039f326fe3bb4412a3f9070d9e811bcb",
        {
            "postprocess-frame:stdout": "",
            "eval-psds-frame:stdout": "psds\t0.426641\n",
            "tune-csebb:stdout": "",
            "postprocess-csebb:stdout": "",
            "eval-psds-csebb:stdout": "psds\t0.780064\n",
            "eval-mpauc:stdout": "mpauc\t1.000000\n",
            "eval-joint:stdout": "1.780\n",
            "postprocess-frame:frame.tsv": "214f958d17d33766f7c790bfb0936b74730a67f115ec8aa185a472e522716f31",
            "eval-psds-frame:frame_psds.tsv": "98d27db134d10cb58d0816c7f66e70d3e240d314a5bd2dde829f640574899702",
            "eval-psds-frame:frame_psds.txt": "bb7bd206fcd4898f944fc7a41c5548464d78e93447a83bf56b1a42d1f62ac6fd",
            "tune-csebb:tuned.tsv": "ab00bf1f6b1c7aff2991fe62658a3a23a405a3e6b52ec0a17b590d5d9e23bf83",
            "postprocess-csebb:boxes.tsv": "c474f45a4b921b797553805e28dd289a4445e82eca4028930813aa7e51aead3b",
            "eval-psds-csebb:csebb_psds.tsv": "13eb0220bde3f6aecbfd31fc5c7613826366cabd030891df246bdb3ad52c6cfa",
            "eval-psds-csebb:csebb_psds.txt": "154b24dc6153de85b07c6d24fbd0e0f795e47a7e26511a0c899cefd5ae6874ac",
            "eval-mpauc:mpauc.tsv": "76b38fd2ea37cae1605d9e719908264b561ab14e4d4c34f961597e13a712d618",
            "eval-mpauc:mpauc.txt": "b518176520987b4b37e99b2c0efe27452e648f78dded4b071fd18d4ec949e122",
        },
    ),
    "bulk": (
        "bd8fe79a3e085e1b560e744c04ba996b660d33ddf487b63541ce45dd1304d4c6",
        {
            "postprocess-frame:stdout": "",
            "postprocess-median:stdout": "",
            "postprocess-csebb:stdout": "",
            "eval-psds-frame:stdout": "psds\t0.982202\n",
            "eval-mpauc:stdout": "mpauc\t1.000000\n",
            "postprocess-frame:frame.tsv": "432fa48935034db5a91aefb4e4803c0fcb46e2bbd2d0b9034e64bb864fdd4d6f",
            "postprocess-median:median.tsv": "4f1d0df82ee106290ea9c4dfc9f057ec12603300e3ba2da733ff4a169f5ac590",
            "postprocess-csebb:csebb.tsv": "945b249a271b6163d1bd58cda656228d12ac4ee76516895916269dbbc86c9d52",
            "eval-psds-frame:frame_psds.tsv": "b27bfd836739587f58b72536aa19f25c819e02228a7a24bf9d334244f2a588f1",
            "eval-psds-frame:frame_psds.txt": "7940aea918fd9114e8c65cd67e76496da4fc08725cea35237471e1f9c0b84db9",
            "eval-mpauc:mpauc.tsv": "93c81693be994ed7a1848a2b81ea96710b7d3679b7db91f7a4094f367f9fc56c",
            "eval-mpauc:mpauc.txt": "251076142fe70954653001bdd305f0a2a066ebb67a1714b626b0e212ef17edd6",
        },
    ),
}


@pytest.mark.parametrize("workload", sorted(SETUP_PINS))
def test_a_set_up_pass_writes_the_pinned_bytes(workload):
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0", "--setup-only"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    digest, outputs = SETUP_PINS[workload]
    assert result["problems"] == {}
    assert result["digest"] == digest
    assert result["outputs"] == outputs
