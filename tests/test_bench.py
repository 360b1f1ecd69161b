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
    # the CLI's post-processing and mPAUC run through the public functions
    # the tracer wraps, so their counts are live
    for count in ("postprocess.events", "postprocess.boxes", "evaluation.segments"):
        assert result["metrics"][count]["value"] > 0, count


# The fixture digest and the outputs (stdout text and SHA-256 of each file
# or in-memory array) of one set-up pass at seed 7.  A refactor keeps every
# byte; a change that means to alter an output updates these and says why.
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
    "frontend": (
        "d80d41d4ae97539c8b7d9344636b0ab6eeb0c5135176d9655b18467efe41b8cc",
        {
            "features:stdout": "",
            "train-step-0:styled": "f4ef42825bc281bd8054fd5662223d7a9423e4808e2947d62fd582e9598f3868",
            "train-step-0:grad": "47e3eb3aa649e5347064aad6c801e85198380ac4af72bc47c1738fbaedc3459b",
            "train-step-0:normed": "24aaf00e6bebc9655db0ccfca5213b20b0267d65a43c333448f2ba92ae307d57",
            "train-step-0:losses": "3d4b207db3c1785f7f071a7ce879d7b76649b059bc4fb48fad57fbb0c2528fc4",
            "train-step-0:teacher": "798c9628ad4147045ab3a4d6912ea4184f853f9dd0419fe4c89a78a1de7461f4",
            "features:clip_00.mel": "0c25932d76d5ee4491ad412a7ba55bfb092d595fd1de79f807f85f6d40800b31",
            "features:clip_01.mel": "78751611c5badedf89afe42723aef0c77dcdb90e68fe48170978f1e853e3d7b0",
            "features:clip_02.mel": "42272b7803987aea4da419d3635896987df98bd67756e4162c718969d42518df",
            "features:clip_03.mel": "0f14d00bdf7e1149d9c8428c7726e0e5eeea4b6d560ebbf30fa72df0a3576641",
            "features:clip_04.mel": "9d2289ea0dc6bc6e2e1050b44e37a80b9ad1c2f2ad0fe0499b8aea5fac4d2649",
            "features:clip_05.mel": "139faabf54afa24cdf41f95e8b8c66cd5fcf2e9d3ab9a2ae74a1bcb64c50158f",
            "features:clip_06.mel": "97971d067eaf7df52e25018b9dd92b05d752813f1c4a4c98be3f569ef10bee79",
            "features:clip_07.mel": "10d8cd6fde2d632a624428af486cadc5c019c653028a7772c7f4f779d7e38e24",
            "features:clip_08.mel": "b2ed7dc3e9c3dc2f8c5e8f27ce1438572d19244201d0abc45a52e45cfe986021",
            "features:clip_09.mel": "1238918321b0c349b637a37c633fa9b53bf61116fe30a58f05f00dfa8fde1b1c",
            "features:clip_10.mel": "ad6e87246b42755fe681fd00e688254a78a11ea5c043a6f88bf3cfa5e5eccf95",
            "features:clip_11.mel": "0b18754339fb6013972b8fada5d1fe54eb699b49a27bbbf79a08d420a7214361",
            "features:clip_12.mel": "5efec7ee6694114b7483fe275cbd63602ac73553c5efb6529c3289b3ca7e451c",
            "features:clip_13.mel": "335f3cb5af0ab0af7a72b3580b989ddc184ec8d21984f78ba196e18b7ca828f4",
            "features:clip_14.mel": "e1aeac0ab10e8c1b7f115285a061b57d4a74f83126ad8702c4c3ddcb39d0f31c",
            "features:clip_15.mel": "766497ec44a917b1307fe72b37640af8973ed8123e5cf34b55ff7185e2f16b44",
        },
    ),
}
# Outputs left out of the comparison: the FDY stem and block go through
# BLAS contractions, whose last bits depend on the BLAS build and the CPU.
# The frontend pins were taken with numpy 2.4 on an x86-64 CPU with
# AVX-512: the mels' float64 log and the losses' log, log1p, exp and tanh
# run in the SIMD kernels numpy picks for the CPU at run time, so on a CPU
# with other SIMD extensions the mel and train-step digests may change
# while the code is correct.
UNPINNED_PREFIXES = ("stem-", "block-")


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
    pinned = {key: value for key, value in result["outputs"].items() if not key.startswith(UNPINNED_PREFIXES)}
    assert pinned == outputs
