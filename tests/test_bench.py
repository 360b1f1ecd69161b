import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# counts that read non-zero only when the traced layers run: the CLI's
# post-processing and mPAUC go through the public functions the tracer
# wraps; the front-end's features, FDY and MixStyle layers through theirs
LIVE_COUNTS = {
    "walkthrough": ("postprocess.events", "postprocess.boxes", "evaluation.segments"),
    "bulk": ("postprocess.events", "postprocess.boxes", "evaluation.segments"),
    "frontend": ("features.frames", "fdy.macs", "domain_gen.bytes"),
}


@pytest.mark.parametrize("workload", sorted(LIVE_COUNTS))
def test_traced_bench_run_is_correct(workload):
    # a short traced run: the tracer's hooks (such as len() of the PSDS
    # sweep's detections) and the CLI calls the bench makes must still work
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]
    for count in LIVE_COUNTS[workload]:
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
            "train-step-0:styled": "4472b4a8854a1d1268a96eba893f28aef9272c391e2303a628fa44e00526fdd1",
            "train-step-0:grad": "3ad57a88a680e95e4225f4cb46db9feada3ed1f2bf83555a7676162d3b50fb89",
            "train-step-0:normed": "0577d54ba1ea0606cdd6bc045dc2ff043d89dd5bba76515c54809a372cd782b5",
            "train-step-0:losses": "fd4118449615a10bd61c64f8ce3e805e4ecee5bb71851f5ee2fe05192703fdb7",
            "train-step-0:teacher": "798c9628ad4147045ab3a4d6912ea4184f853f9dd0419fe4c89a78a1de7461f4",
            "features:clip_00.mel": "5657cc126d27ce6154a633b8bde1e88254672b7e11146b4ea75c29adbb373822",
            "features:clip_01.mel": "80f97dca6a7eb0de247e98952304a467dc828a47c002efb4b092c75322104525",
            "features:clip_02.mel": "34d529dcfcaa3d0f26601a984899f836e77f09a716945647c4edaa2093fd52e1",
            "features:clip_03.mel": "aefee929ee760673e2d1324386388ba33f5e291d59951421113aee36e3ee73ab",
            "features:clip_04.mel": "4da0018eb13001ea94761ec96854c4efa4be4edc771f72384e0c424e2e8a1cd9",
            "features:clip_05.mel": "417435cd310be7c65f7a45090e771e053ed168d7775d64cb83f75da387923e2e",
            "features:clip_06.mel": "fcb1ed7e99bd662fc66e31713bc0fddf64399ce5ee7f667051ded48cfe1e3b71",
            "features:clip_07.mel": "84310803e5f572ebe057898afd685c4c622e5843893b9039f57b5275d0271d01",
            "features:clip_08.mel": "3fdbfd7d0567d58d8f7678e37600a0d1dab456eff78de09f4263302acd5d94c4",
            "features:clip_09.mel": "0b239c12c7fdc0747330bc268a75c36a56680165cc8f5d14f4b3c15957d1df46",
            "features:clip_10.mel": "7e3d738967febe65fbd5367219039c14cc391a1ee67d29ff2b729dabe5bdafc7",
            "features:clip_11.mel": "cb43f92ba5652118a678390de1acdd4f5f9c6352255c10b7cdbbae8314fc7449",
            "features:clip_12.mel": "bc6ed39c58b79807608de16039ef2f3bb7a375af9b6cb88ce035345bb90f2531",
            "features:clip_13.mel": "6a3d9b1ef6145d8b0aa1e16f82ab62547564954c6ab23e1cba50d48fc27de48c",
            "features:clip_14.mel": "8f30d225a9a618cc0281096b6e5dcd82889093f511eabf15d4f11aaba63ff291",
            "features:clip_15.mel": "052f0972d006d0ab60d6f0423b940c3cfa60491a21284067ce896e797620b5a3",
        },
    ),
}
# Outputs left out of the comparison: the FDY stem and block go through
# BLAS contractions, whose last bits depend on the BLAS build and the CPU.
# The frontend pins were taken with numpy 2.4 and scipy 1.17 on an x86-64
# CPU with AVX-512: the bench's PCM16 WAVs go through scipy's float32
# pocketfft kernels, the mels' float64 log and the losses' log, log1p, exp
# and tanh through the SIMD kernels numpy picks for the CPU at run time, so
# on a CPU with other SIMD extensions (or another pocketfft build) the mel
# and train-step digests may change while the code is correct.
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
