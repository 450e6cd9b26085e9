"""Golden artifact hashes: small CLI runs on the shipped fixtures, and the benchmark's runs.

Every refactor must leave these bytes unchanged.  Each case records the
exit code and the sha256 of every file the run writes.  To re-record after
an intended output change, print ``run_case(args)`` for every case and
paste the result.  The benchmark's workloads are held to the hashes in
``bench/golden.json``, in process, at both of its sizes.
"""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gkzlog.cli import main
from tests.conftest import FIXTURES

GAUSS = str(FIXTURES / "gauss.json")
PYRAMID = str(FIXTURES / "square_pyramid.json")
TRIANGLES = str(FIXTURES / "ci_two_triangles.json")
QUAD = str(FIXTURES / "ci_quadrilateral.json")
QUINTIC = str(FIXTURES / "quintic.json")
HEXAGON = str(FIXTURES / "hexagon.json")

CASES = {
    "solve-gauss-0": ["solve", GAUSS, "--order", "0", "--radius", "6"],
    "solve-gauss-1": ["solve", GAUSS, "--order", "1", "--radius", "6"],
    "solve-gauss-2": ["solve", GAUSS, "--order", "2", "--radius", "5"],
    "solve-pyramid-0": ["solve", PYRAMID, "--order", "0", "--radius", "4"],
    "solve-pyramid-1": ["solve", PYRAMID, "--order", "1", "--radius", "4"],
    "solve-pyramid-2": ["solve", PYRAMID, "--order", "2", "--radius", "4"],
    # Chosen index subsets: the order-1 assembly and a mixed diagonal/off-diagonal H.
    "solve-pyramid-1-subset": [
        "solve", PYRAMID, "--order", "1", "--indices", "1,4", "--radius", "4",
    ],
    "solve-pyramid-2-subset": [
        "solve", PYRAMID, "--order", "2", "--indices", "0,4 2,2", "--radius", "4",
    ],
    "combine-gauss-1": ["combine", GAUSS, "--l", "(-1,-1,1,1)", "--radius", "8"],
    "combine-pyramid-1": ["combine", PYRAMID, "--l", "(-1,0,-1,0,2)", "--radius", "4"],
    "combine-gauss-2": [
        "combine", GAUSS, "--l", "(1,1,-1,-1)", "--l", "(-2,-2,2,2)", "--radius", "6",
    ],
    "combine-pyramid-2": [
        "combine", PYRAMID, "--l", "(-1,0,-1,0,2)", "--l", "(0,1,0,1,-2)", "--radius", "5",
    ],
    "combine-pyramid-2-diag": [
        "combine", PYRAMID, "--l", "(1,-1,1,-1,0)", "--l", "(1,-1,1,-1,0)", "--radius", "4",
    ],
    "mirror-triangles-1": ["mirror", TRIANGLES, "--index", "1", "--grade", "10"],
    "mirror-triangles-5": ["mirror", TRIANGLES, "--index", "0,5", "--grade", "10"],
    "mirror-quadrilateral-4": ["mirror", QUAD, "--index", "4", "--grade", "6"],
    "mirror-quadrilateral-2": ["mirror", QUAD, "--index", "2", "--grade", "6"],
    "mirror-quintic-1": ["mirror", QUINTIC, "--index", "1", "--grade", "8"],
    # Bench-sized graded arithmetic: a high grade bound, and a rank-4 lattice.
    "mirror-triangles-32": ["mirror", TRIANGLES, "--index", "0,2", "--grade", "32"],
    "mirror-hexagon-1": ["mirror", HEXAGON, "--index", "1", "--grade", "8"],
    "mirror-hexagon-14": ["mirror", HEXAGON, "--index", "1", "--grade", "14"],
    # A sweep radius above 4: the minimality sweep runs at the radius given.
    "mirror-hexagon-radius-6": [
        "mirror", HEXAGON, "--index", "1", "--grade", "8", "--radius", "6",
    ],
}

GOLDEN = {
    "combine-gauss-1": (
        0,
        {
            "run_report.json": "887ca218f04cb550890178bff2851827493306f36b657f17af5ed65f2ce330e8",
            "solution.series": "11c29db30b1a45f9cdf562150fac3c4a1026e156997cbb3db8f6f6f5cb70e765",
        },
    ),
    "combine-gauss-2": (
        0,
        {
            "run_report.json": "6554da92783419f625dd24c0c4f1cf45bfb4be707021a9288b8e742d943c6ca8",
            "solution.series": "9178d66f188cb3841697bff2bf399778fac2c2472cb43dcad3d994a942d1e436",
        },
    ),
    "combine-pyramid-1": (
        0,
        {
            "run_report.json": "271079b66aa85feafd5aecc39dbc9ab7cb82a426f04ba29dcd09b589932d5f88",
            "solution.series": "8074fb60fd865907c8fa7ea2de84069e7699e7dcf1b3e577994a5a6fba9b6732",
        },
    ),
    "combine-pyramid-2": (
        0,
        {
            "run_report.json": "39c13a380673a12777a2668293fac384c482bd6189047516b74a022fa405053a",
            "solution.series": "9a17029b44814d9f53297ae9e62771a8113f2d282b354feca50da00fc325e5e2",
        },
    ),
    "combine-pyramid-2-diag": (
        0,
        {
            "run_report.json": "b28ac37a07be8dc65f8c98a368f0e38f0aacd39ccdd0a2283e116acaf1fd67a8",
            "solution.series": "0bcda420c9b0ac8185a8ec403328ab9d5b7f9c07d586e3136540f810302d5a06",
        },
    ),
    "mirror-hexagon-1": (
        0,
        {
            "mirror_0_1.coeffs": "8ea7f5fabeb415c9511687e2e508fde0a3a953c9d1cef9b316257f5a93e65387",
            "mirror_0_1.report": "e2ab2a0fddc99ffc7931e587b789cd8c105fb0e1838dfff638774b21c593ec78",
            "run_report.json": "bdc7f9321b568dcd97f7a18b3b8a65b3e2088d821708ef267da0d54b29ba8015",
        },
    ),
    "mirror-hexagon-14": (
        0,
        {
            "mirror_0_1.coeffs": "9e748862a188bdfb3ccae6036d67cd292c14c1f68562841a77987c7a695d35ca",
            "mirror_0_1.report": "b3727c43feacc3ecac36eb109fabfb0f98617a378f2903dac45c973814c4560b",
            "run_report.json": "1ac62e5c4712b8c815b37017d43836609c5f4480516bda40b172d82cdc9328e8",
        },
    ),
    "mirror-hexagon-radius-6": (
        0,
        {
            "mirror_0_1.coeffs": "8ea7f5fabeb415c9511687e2e508fde0a3a953c9d1cef9b316257f5a93e65387",
            "mirror_0_1.report": "e2ab2a0fddc99ffc7931e587b789cd8c105fb0e1838dfff638774b21c593ec78",
            "run_report.json": "014a14360a7c48d7fcda7ccf1fe266aa80af0fff1b3567be7c85fb00251d305b",
        },
    ),
    "mirror-quadrilateral-2": (
        0,
        {
            "mirror_0_2.coeffs": "f50e50b793798ea6b5b3361b31c5aeba21eecd59ef16c25f18e21b1ca2522d77",
            "mirror_0_2.report": "f207c971f441f834e7f550f4d62bf679b9bf7a3dd3d94daf5443b94d58fcd60a",
            "run_report.json": "a96240be38974e66cd61753318fea64c2bdb8ae25106c435387024c25541769c",
        },
    ),
    "mirror-quadrilateral-4": (
        0,
        {
            "mirror_0_4.coeffs": "d8896f6b7cf5b1477fd6d7727db10e7aa276935b19c8838e6cb7dbd22c6c3933",
            "mirror_0_4.report": "48cc8063cb2b3da5423cb94fd07baff338fd62fb033d62f1ac185ac7ff6c5aee",
            "run_report.json": "6c6584ffe1c3c1c0bb9b69913bcb6539ead0f1aac580335ba0c4ee85ffb976a8",
        },
    ),
    "mirror-quintic-1": (
        0,
        {
            "mirror_0_1.coeffs": "42b491cb9d10870db5b0066ac62fa598a699fbb09a9a6f92092e89836756685f",
            "mirror_0_1.report": "99f5f628880753a2802ced7feb53c75aa79a800ea43d848dba6263205d4b068c",
            "run_report.json": "836b2ce7522ece772ec9641542e226ce4dd52a1e8089f73d40fab45b8c7fbee8",
        },
    ),
    "mirror-triangles-1": (
        0,
        {
            "mirror_0_1.coeffs": "f057a4b72aad3e62ba7629d8e4c8708daec9bfe815fa277c6022f38b31998e4e",
            "mirror_0_1.report": "acededced68db63c73745e983acdd7532c7dba70a382cf7a314a462b542adbbf",
            "run_report.json": "1c7051dc50b32ec32db272fcbdc3deca725c1d6ea8d5306c6c37ccf8e7f62515",
        },
    ),
    "mirror-triangles-32": (
        0,
        {
            "mirror_0_2.coeffs": "feecbbe855ccae86c9d370de7eadc9066df285bd36dfa863cfbc9a62ed40d664",
            "mirror_0_2.report": "6ae4b538fe2dae8bf6585c943b1d2b8a611e271a71c53c6f583af4f3819853e6",
            "run_report.json": "915990b31bc62f613b3c96e2004c27088eeb2bf9aa5ec389e9046c46ea758420",
        },
    ),
    "mirror-triangles-5": (
        0,
        {
            "mirror_0_5.coeffs": "b0dc35091f5b39bad0919f4505a53561c9a2df3b21ef01c005c385a8dea74771",
            "mirror_0_5.report": "456a70a3a7107154a35c7abc21ad8c72cff161ced5d9d3264fbfa352b6ca71fe",
            "run_report.json": "54f49a6b00292c9240dd7130dadab996f8fb98520c08cad80d46d0d86168511e",
        },
    ),
    "solve-gauss-0": (
        0,
        {
            "F.series": "3ffd4a637d7d5803e82c00d9d0c5e5eb1423ec9992fcbc32dad009c716886fdb",
            "run_report.json": "43bb210acb7b088853c2da5633bfea7fc9a0c27e2223a44f5a2d65c7a008a01b",
        },
    ),
    "solve-gauss-1": (
        0,
        {
            "F.series": "3ffd4a637d7d5803e82c00d9d0c5e5eb1423ec9992fcbc32dad009c716886fdb",
            "quasi1_0.series": "6785cb2ed91697d45f5b73b06e7ebbe62fe3449646d039b93f2661dd2a5ccfaa",
            "quasi1_1.series": "c20427c17d512173f40d006063e2d8d9998d39c4e5b66c9601aab9893d1a7a21",
            "quasi1_2.series": "2755e844d88e48fa13b19f884b95061c909bbab565b32d1d968c34008566cc2b",
            "quasi1_3.series": "6bbcfb8256b9f9e8253c1a4ace75bb159eece3a09e45e4de4c4a3acbc0bd1e89",
            "run_report.json": "84e74d584a4fcb2887db8c31dc57241c80e67a4da43ba88c91e08c6752350328",
        },
    ),
    "solve-gauss-2": (
        0,
        {
            "F.series": "1fd161af9b8e05bf5d44df7a40967c896020c3f35d7a8155a14bd55b3777e2b3",
            "quasi2_0_0.series": "e7d2bd55b512fe3626451e1a5a44bc3e3aba0f5e7e1ed5be133a914d2d3454b5",
            "quasi2_0_1.series": "a82e29c6c3bb9f70393456cc45b2a85eb828c1e0596d51b1ace83600b2a1e035",
            "quasi2_0_2.series": "95667e3a8c649b4d59d92dfa37d88faea5322c845f62a785460788020ca50a47",
            "quasi2_0_3.series": "bee1d28686125ad8ea25313f0698ed36befe32fadc91a6f32d275b825b2a7645",
            "quasi2_1_1.series": "c6a3d2f6a16c076885529a2870aa58923c36a9d71e55a1f0ae61358ac0e1e9fd",
            "quasi2_1_2.series": "3d1060bf15413a6c05857015742fa5b0655e5a680eef3b42bc7545c5f652ee70",
            "quasi2_1_3.series": "9fd0097684252dc65a60e7fbc7f940df30f729cfd7ee22a10f0563d298b7ef7d",
            "quasi2_2_2.series": "67059b266a07db0a1dffb036a920ce0e44e8859c0ba095d1420b3b423a7502e7",
            "quasi2_2_3.series": "c2987efa850546ff07c793f2e0729d4a93c4d866a753f713dfeea813fe0636e4",
            "quasi2_3_3.series": "ccc2ac9a23880cf55be2a226672a44368e3a7fd9da57aaa328baeb9f6aafb626",
            "run_report.json": "d255688336c95d1137f9703cd1717c418279cf5517daf28d68c4a8f32f76f0b2",
        },
    ),
    "solve-pyramid-0": (
        0,
        {
            "F.series": "84d0c6215f84a3f57ef3fec423763a6dca2b13b1f0285aab7a4ffb96d96e4ea1",
            "run_report.json": "0fa98d933ba5665d8deff89b1a1bd6cd24172f977f4d2c067b0296fe16d818a6",
        },
    ),
    "solve-pyramid-1": (
        0,
        {
            "F.series": "84d0c6215f84a3f57ef3fec423763a6dca2b13b1f0285aab7a4ffb96d96e4ea1",
            "quasi1_0.series": "5ef891925ce830cd2db7fe5ea36c8288906e479126b2d06e3a697438d17d1f4d",
            "quasi1_1.series": "ea65bf37a76cbac1399366c15460bc0c178991d086f653f635d139b5cf07d2fe",
            "quasi1_2.series": "17f0edc0a7724fae207c747be02509daf89a0c07760aee0ef851a412e94d5cbe",
            "quasi1_3.series": "75e4a4f387009b662907a7d222f0d77685c9a15ba921fafc343788e57576b5a6",
            "quasi1_4.series": "6fcfbe885c7afdd35552f454067c5f599b2632684fcbdfd07074770f58c48509",
            "run_report.json": "687092f6b7cd21cce25a534b9cf45f82cafd2503bdea6bdca4ef916433a65de4",
        },
    ),
    "solve-pyramid-2": (
        0,
        {
            "F.series": "84d0c6215f84a3f57ef3fec423763a6dca2b13b1f0285aab7a4ffb96d96e4ea1",
            "quasi2_0_0.series": "da08d38066eeb52eeb0caad32bf96172b18bace775d241168a8e549e194e315c",
            "quasi2_0_1.series": "19c1eb74e512809a6071a0385b689a97d1bf3e89d0b4d55d1576a0971dd76b91",
            "quasi2_0_2.series": "44befe05e9e0dfe3bb464ed6f1626f9d211dce6021a4c3f2e9789c567c43450b",
            "quasi2_0_3.series": "848feff154c5047fa0b8deff7222c308f693ce34a60173c2f13f94269eb9dc0d",
            "quasi2_0_4.series": "4d6275c6c42b7004eda27ebb90466b7c506adde143e735ae9c8523a5f8c8fe5d",
            "quasi2_1_1.series": "785c133d586d1295224729b2666670ca3293cadd1643ebe92af0ce541a5efb6f",
            "quasi2_1_2.series": "1428cfda638c1ca4f14b9252ac83f770199c2ac57f73fda297cfa162ff80532e",
            "quasi2_1_3.series": "55560f2be247316f4f37d1701d2b84e297f21d071a7be13709da6e8678c8f15a",
            "quasi2_1_4.series": "bf7efbdaf788e37377905dcac3353d58d9d59d8f272d1bdf5a7e88711b9bfad4",
            "quasi2_2_2.series": "88561754c149b7027086614406d7d0eceb9b76364ae9570ad2b0ce9aec85200f",
            "quasi2_2_3.series": "fdaa906db3782a1af67998774a10c3ba99d96dffdcdfd2ea918685bacc319943",
            "quasi2_2_4.series": "cd390f86c9f3af969e10a1d1de54682c9136679dcd13b3554aff64efb13666bd",
            "quasi2_3_3.series": "743f73e8c0b1804c6f47abc3232dabf1ce4c1fb247f3b04bca888e28e585f203",
            "quasi2_3_4.series": "5fa11172b082771a85255eae7734caf2f92d9b37bab2aaa1b71d58d30fe9b3f8",
            "quasi2_4_4.series": "daf550cfd01bf8fd934e7a397ee158228aef233269f6933c97f0fb9226119338",
            "run_report.json": "2ccabfddcf0b0eb0ffeb92e2be2b69760f7932dd1d6b846d9ed1a101d6bcf0b6",
        },
    ),
    "solve-pyramid-1-subset": (
        0,
        {
            "F.series": "84d0c6215f84a3f57ef3fec423763a6dca2b13b1f0285aab7a4ffb96d96e4ea1",
            "quasi1_1.series": "ea65bf37a76cbac1399366c15460bc0c178991d086f653f635d139b5cf07d2fe",
            "quasi1_4.series": "6fcfbe885c7afdd35552f454067c5f599b2632684fcbdfd07074770f58c48509",
            "run_report.json": "92fbd142af44b9c0483bf11578b36873621c3c3ac83a618f235ccc716e20d4a2",
        },
    ),
    "solve-pyramid-2-subset": (
        0,
        {
            "F.series": "84d0c6215f84a3f57ef3fec423763a6dca2b13b1f0285aab7a4ffb96d96e4ea1",
            "quasi2_0_4.series": "4d6275c6c42b7004eda27ebb90466b7c506adde143e735ae9c8523a5f8c8fe5d",
            "quasi2_2_2.series": "88561754c149b7027086614406d7d0eceb9b76364ae9570ad2b0ce9aec85200f",
            "run_report.json": "0535a66026107611ed1ca01d4c243cce90bced8816813d24f5705d4e44f24a8f",
        },
    ),
}


def tree_hashes(out_dir):
    """``{file name: sha256}`` of the files in ``out_dir``, empty when there is none."""
    files = sorted(out_dir.iterdir()) if out_dir.exists() else []
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def run_case(args, out_dir):
    """Exit code and ``{file name: sha256}`` of one CLI run into ``out_dir``."""
    code = main(args + ["--out", str(out_dir)])
    return code, tree_hashes(out_dir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_hashes(name, tmp_path, capsys):
    assert run_case(CASES[name], tmp_path / "out") == GOLDEN[name]


def other_interpreters():
    """Each ``python3.N`` on PATH, N from 10 to 13 but the running one, that starts as 3.N."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        try:
            done = subprocess.run(
                [exe, "-c", "import sys; print(*sys.version_info[:2])"],
                capture_output=True,
                text=True,
                timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode == 0 and done.stdout.split() == ["3", str(minor)]:
            found.append(exe)
    return found


CROSS_VERSION_CASES = {
    "solve-pyramid-2-radius-4": CASES["solve-pyramid-2"],
    "mirror-triangles-1-grade-8": ["mirror", TRIANGLES, "--index", "1", "--grade", "8"],
}


@pytest.mark.parametrize("name", sorted(CROSS_VERSION_CASES))
def test_other_interpreters_write_the_same_bytes(name, tmp_path):
    # pyproject claims Python 3.10 and later; every artifact byte must agree
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10 to python3.13 on PATH starts")
    args = CROSS_VERSION_CASES[name]
    want = run_case(args, tmp_path / "here")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for k, exe in enumerate(interpreters):
        out_dir = tmp_path / f"other{k}"
        code = "import sys; from gkzlog.cli import main; sys.exit(main())"
        done = subprocess.run(
            [exe, "-c", code, *args, "--out", str(out_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert (done.returncode, tree_hashes(out_dir)) == want, (exe, done.stderr)


@pytest.mark.parametrize(
    "argv, code",
    [(["solve", GAUSS, "--order", "x"], 2), (["--help"], 0)],
    ids=["usage-error", "help"],
)
def test_other_interpreters_parse_argv_alike(argv, code, capsys):
    # argparse worded its usage errors and help differently from version to
    # version; the table parser prints the same text under every interpreter
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10 to python3.13 on PATH starts")
    assert main(argv) == code
    want = capsys.readouterr()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for exe in interpreters:
        done = subprocess.run(
            [exe, "-c", "import sys; from gkzlog.cli import main; sys.exit(main())", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, want.out, want.err), exe


ROOT = Path(__file__).resolve().parent.parent


def bench_workloads():
    """``bench/workloads.py``, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses reads the module's namespace through it
    spec.loader.exec_module(module)
    return module


WORKLOADS = bench_workloads()
BENCH_GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("size", ["full", "small"])
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_workloads_match_the_bench_golden_hashes(name, size, tmp_path, capsys):
    workload, golden = WORKLOADS.WORKLOADS[name], BENCH_GOLDEN[size][name]
    assert sorted(golden) == sorted(workload.variants)
    for variant in workload.variants:
        problem = WORKLOADS.write_inputs(workload, 0, variant, tmp_path / variant)
        out_dir = tmp_path / variant / "out"
        assert main(workload.cli_args(variant, problem, out_dir, size == "small")) == 0, variant
        assert tree_hashes(out_dir) == golden[variant], variant
