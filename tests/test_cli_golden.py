"""Byte-level pins of the CLI on the bundled datasets.

Each case runs ``rrsim`` in-process with ``--json`` and ``--csv`` and compares
the sha256 of stdout, the JSON file and the CSV file against the digests
below.  A change meant to keep the output the same must keep these; a change
meant to alter it re-pins them with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the table for the code as it stands.
"""
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from rrsim.report import run_cli

DATA = Path(__file__).resolve().parent.parent / "data"
DATASETS = ("decreasing", "illustration", "increasing", "random")
POLICIES = ("proposed", "pbdrr", "its-rr", "rr:7", "srtn", "fcfs")


def _cases():
    cases = {}
    for ds in DATASETS:
        csv = str(DATA / f"{ds}.csv")
        for policy in POLICIES:
            cases[f"simulate {policy} {ds}"] = [
                "simulate", "--workload", csv, "--policy", policy]
        cases[f"compare {ds}"] = [
            "compare", "--workload", csv, "--policies", ",".join(POLICIES)]
        cases[f"components {ds}"] = ["components", "--workload", csv]
        cases[f"components static {ds}"] = [
            "components", "--workload", csv, "--static-ots", "4"]
        # --paper-notes wherever a published table may apply
        for policy in ("proposed", "pbdrr"):
            cases[f"simulate {policy} {ds} paper-notes"] = [
                "simulate", "--workload", csv, "--policy", policy, "--paper-notes"]
        cases[f"components {ds} paper-notes"] = [
            "components", "--workload", csv, "--paper-notes"]
        cases[f"components static {ds} paper-notes"] = [
            "components", "--workload", csv, "--static-ots", "4", "--paper-notes"]
    for order in ("increasing", "decreasing", "random"):
        cases[f"generate {order}"] = [
            "generate", "--n", "12", "--order", order, "--burst-range", "1:60",
            "--priority-range", "1:5", "--seed", "7"]
    return cases


CASES = _cases()

# A workload written by the test itself: pids of 1, 4 and 7 digits and a
# makespan past 10**4, so the rr:1 chart has one cell per unit and its
# boundary times cross five digit bands.
BANDS_CSV = "id,burst,priority\n7,3700,2\n1234,3500,1\n9876543,3300,3\n"


def bands_digests(tmp):
    csv = Path(tmp) / "bands.csv"
    csv.write_text(BANDS_CSV, encoding="utf-8")
    return digests(["simulate", "--policy", "rr:1", "--workload", str(csv)], tmp)


def digests(argv, tmp):
    """sha256 of (stdout, JSON file, CSV file) for one CLI run."""
    json_path, csv_path = Path(tmp) / "out.json", Path(tmp) / "out.csv"
    out = io.StringIO()
    rc = run_cli(argv + ["--json", str(json_path), "--csv", str(csv_path)], out=out)
    assert rc == 0, argv
    blobs = (out.getvalue().encode(), json_path.read_bytes(), csv_path.read_bytes())
    return tuple(hashlib.sha256(b).hexdigest() for b in blobs)


GOLDEN = {
    "compare decreasing": (
        "444172fdff7613fb30ee58654f5de82c51960795ceeb3ba55a54a804adb3a8d7",
        "1fee778a4dfc71619f5510c48c830ae0968bbd1703080ae6a83495982d4a5886",
        "05ba4ce13b1796dcaf20a47c2ab552cb2f4ab6044b2a19cdadbdcf5edccf00e6",
    ),
    "compare illustration": (
        "4f02465f30cada75d96af1ce395504b4244eae29d72bda3e6467f55d88101dce",
        "d0457c659ab495f79678479d519a53b6906e8eaae36126465c9ea565f1c307d3",
        "d8d1814e35d73b804018370ec37fa17ea9be873c4a8946032bb58ce329048492",
    ),
    "compare increasing": (
        "310328b061d1dd397b93b8df15b1fd144f940752c2510caed6dbc171abe332d0",
        "d24bc5ad0ae3b2b192ed05561a2a453baf98924963babf21cfc6887000edf5e1",
        "a3bdd8da18750e36162bfcf2dc51b83aeee9fa769a6c6dbc20b175b7f38de0aa",
    ),
    "compare random": (
        "3088dc62b12da4ca481c6f2ac187dbec1b12db8e065daf496a6d5b08bd7d8ac9",
        "5f84006b5eea63dc421b11831d33416ee59c212d59c06a28615c91f662c3a89e",
        "77cd198a2d9dc426c49cb1cdef2281469ee8809706ddb44530e8d8994a90eab2",
    ),
    "components decreasing": (
        "64a62b1a5436d0de557705ebf7d57cec2d95c8ccd7fb1acab62ce24af704bd54",
        "b81cc60e4868b3e659c8eea33959a32e415cd8f085582bc806a480b79ca023ad",
        "0289f4cd2aff80f5f125c01d6fccaa7e6d42322de979d7189f8bea67ab73a0e9",
    ),
    "components decreasing paper-notes": (
        "64a62b1a5436d0de557705ebf7d57cec2d95c8ccd7fb1acab62ce24af704bd54",
        "b81cc60e4868b3e659c8eea33959a32e415cd8f085582bc806a480b79ca023ad",
        "0289f4cd2aff80f5f125c01d6fccaa7e6d42322de979d7189f8bea67ab73a0e9",
    ),
    "components illustration": (
        "e9fa960f077c779341e7a95ecb84e097700a61b6d3f76c44a64af0605ffae5c9",
        "f0edf9c21e12fbaf7da93795412a274ee6c68733d3098aa5cf76997715db4809",
        "17d4c733982ec3d6b56a62cfa851dda103b27bf940db2d16a40e316c5d07444a",
    ),
    "components illustration paper-notes": (
        "6f4eed9fc7cddfdf011dc0ef558fa6d845314581226ebcc41b7fe5f4256cc3a6",
        "f0edf9c21e12fbaf7da93795412a274ee6c68733d3098aa5cf76997715db4809",
        "17d4c733982ec3d6b56a62cfa851dda103b27bf940db2d16a40e316c5d07444a",
    ),
    "components increasing": (
        "b9ae011448fe6febdd658da7a83c123629cae35d30320f75a5e1dbc46817467c",
        "1912e9176dd3bd981043a1e5fa5f9288bcd3171f95e8d21e25d7a878fd96ceeb",
        "dce01fe78c2f889e9157a9867d9aaf50f9e23ebf58c16e913f2afaed22d77d45",
    ),
    "components increasing paper-notes": (
        "1204ad359c3de3b4d5491f10234f1b571774604c8066f704e08d688c31fda263",
        "1912e9176dd3bd981043a1e5fa5f9288bcd3171f95e8d21e25d7a878fd96ceeb",
        "dce01fe78c2f889e9157a9867d9aaf50f9e23ebf58c16e913f2afaed22d77d45",
    ),
    "components random": (
        "8942bf2eb889292b549e218dc7a62e0610609b0fefc28636c81f7fb54596ac9b",
        "89c5c8d1e6e2f5180dde7912d29e92bd373bf16249158b88f8f10bee788985a7",
        "9bea3602d1af5551b6377917dbd40574805d1b6d1c4153eea3c37bcc687cf6b7",
    ),
    "components random paper-notes": (
        "8942bf2eb889292b549e218dc7a62e0610609b0fefc28636c81f7fb54596ac9b",
        "89c5c8d1e6e2f5180dde7912d29e92bd373bf16249158b88f8f10bee788985a7",
        "9bea3602d1af5551b6377917dbd40574805d1b6d1c4153eea3c37bcc687cf6b7",
    ),
    "components static decreasing": (
        "41662c20f77da3bb824b442684ef68dd3624dbeaa7d9d3c1b5615d50c67148e6",
        "6abbe1ae1c1de849377d3733391cf7fd154228fcdf8417bf72d968c2e1b4fada",
        "7f27c5df5f13d285421241767f018fb96372af228ae3b9c2793161d04d5c4e13",
    ),
    "components static decreasing paper-notes": (
        "41662c20f77da3bb824b442684ef68dd3624dbeaa7d9d3c1b5615d50c67148e6",
        "6abbe1ae1c1de849377d3733391cf7fd154228fcdf8417bf72d968c2e1b4fada",
        "7f27c5df5f13d285421241767f018fb96372af228ae3b9c2793161d04d5c4e13",
    ),
    "components static illustration": (
        "e08aa4af4e9095c5526a526d23ae5e13fbabc3b80b363a06cec28036eefbbea1",
        "30e17c26829f7fbb11cfb8614850a8fc6b040db6d8a93645a08573c688dac7fc",
        "3a314f71cae3022d265029daaaee43522a40b7335df5a3b32735553a998e11f1",
    ),
    "components static illustration paper-notes": (
        "e08aa4af4e9095c5526a526d23ae5e13fbabc3b80b363a06cec28036eefbbea1",
        "30e17c26829f7fbb11cfb8614850a8fc6b040db6d8a93645a08573c688dac7fc",
        "3a314f71cae3022d265029daaaee43522a40b7335df5a3b32735553a998e11f1",
    ),
    "components static increasing": (
        "610e2276b03baf218a642b6c4a40c57bb50e6aede1fe62125afaa3951d365824",
        "e8e04ba10e9b60d4524dddf771df5249215c61d7f3f1c8f2d9d232d602717ea4",
        "e1755583eba0c63d15977784aec1302bb81890d4807961a4201d2e3beffd6009",
    ),
    "components static increasing paper-notes": (
        "610e2276b03baf218a642b6c4a40c57bb50e6aede1fe62125afaa3951d365824",
        "e8e04ba10e9b60d4524dddf771df5249215c61d7f3f1c8f2d9d232d602717ea4",
        "e1755583eba0c63d15977784aec1302bb81890d4807961a4201d2e3beffd6009",
    ),
    "components static random": (
        "3b6a78a6b44212cb003c91d4d2fd876e290a332224e2d0f6f504488698df010b",
        "6374e45984c1ecea041013ca3bd0d630ccff96828046dfcce51ca77024c77aaf",
        "86cd43acfd0ee7696a8f4b4447b7ddc159998bab2d7931ca3f1e226125d84c17",
    ),
    "components static random paper-notes": (
        "3b6a78a6b44212cb003c91d4d2fd876e290a332224e2d0f6f504488698df010b",
        "6374e45984c1ecea041013ca3bd0d630ccff96828046dfcce51ca77024c77aaf",
        "86cd43acfd0ee7696a8f4b4447b7ddc159998bab2d7931ca3f1e226125d84c17",
    ),
    "generate decreasing": (
        "6bba178444d43e8ba07bd325b58aba2e9b1bd22970fa3293aa69dd4997c74a82",
        "68a2c5827b295b602564dc398386ad1bc0c565b5a730f1069ef99cdbafa1c887",
        "6bba178444d43e8ba07bd325b58aba2e9b1bd22970fa3293aa69dd4997c74a82",
    ),
    "generate increasing": (
        "82e01834d5d8975e7b2d6d052340f4b2354fd435656e82e2a298ec627b776849",
        "fca75481bb82ea06f9cc9c4cf729b6f0f3d3db7277644a6a831ea6e5d9fb5e22",
        "82e01834d5d8975e7b2d6d052340f4b2354fd435656e82e2a298ec627b776849",
    ),
    "generate random": (
        "809fccc9e20dfae43ce705f4c14bc315d36d26190e7993adcedbae1b30be0242",
        "4512c95754113a7bc0065dadd9ab60a87bac7dd85049a43fecc0d437f3718461",
        "809fccc9e20dfae43ce705f4c14bc315d36d26190e7993adcedbae1b30be0242",
    ),
    "simulate fcfs decreasing": (
        "ea49748d320ea1bb9e4b378e0c0ad2dd6b1f372088895da97886bbf6de8396d6",
        "7495030c29028601e8f00b223ea2a7c546b30c38a0656d5010e05c14bf536ce9",
        "d16f31e8647a58637c4ab9e4588796eee2aa82f6495801b023aa22ba02d31264",
    ),
    "simulate fcfs illustration": (
        "05bd5b318d7e2cb5b8cc4419cfd3dfd87ab800e8cf0742a2db0ac01ae81168de",
        "ba0e9ec49306e6a724c0bc692ce2420b9cf6f67b5a83e135a93e31c680b813cf",
        "7d8cc189a23480edff56f7f26751ade083191776ee1dca93e1c9174ba80e4b08",
    ),
    "simulate fcfs increasing": (
        "2a8cb675562ab585fa18215d4c3e05074dbcccd816b30ec6ef60a1fa317884c0",
        "eba45f76f0db4aeb25cffe53d73752f333464e73cf24b679760c0c3614b99e53",
        "bd470f96b37fd3ec8304fa33638ddfdd46d993737b76bf14072e949b08f45044",
    ),
    "simulate fcfs random": (
        "29d1909e2bdad022d90c8ed4eb40353fa2d6ad499e2689a2413dde71eb56d570",
        "5ccbafaaab259ae9cbda60c7f8470eb0808983963cf181af4c0a4c4ccd3ce91e",
        "3662cd377f5baebc564e5374e824869817048e09d7cb174615c6249227ee8b35",
    ),
    "simulate its-rr decreasing": (
        "858cbed31f0b044d19bc9c64a8a330c6a88a61ed66800aa336a24f92b11778cf",
        "3a8d1eaff65dd2524d661360bbbac49e48fc8ca804325f2342ab6ff757e48803",
        "09d2232b99fc6c97e09429233ec707c007fb97f8bc1cf1b3864263f4f0ae0d21",
    ),
    "simulate its-rr illustration": (
        "a84ab40ad85c5f80cd9924a09745962fdd5013215a01443affe29d9e44678f49",
        "cad7db4a4c11c4f8adc5a7e49ceb941be7620f5a11fbfd2d0473ba8fbe5ab353",
        "a8e760ab923aaaccb33d14d29a9ba2975f1e8e8a50469d369dbe2deddd1a8de6",
    ),
    "simulate its-rr increasing": (
        "3e9f2756847c9646cc53b27599ef4cdc3335a4a051bf012554ac0964f42c0db8",
        "6b615d9162bbfd6426e81a2c618ee7fc605698d489ea72f11bfc0de358f60438",
        "a672b917eb931e676ae0e46169b43fbe209ad32da51db13e2c4a1ae211175b46",
    ),
    "simulate its-rr random": (
        "a8ae89f69f66ed994453efeb6d01416da1cb1a925c1c0791212cb985e18d7b5a",
        "081e3be110742bdbbf1929d0b86e798cfc52bf7657d208f3376ddc4f126fb008",
        "eb995ebcbad7e7c409f044bb11ccfb39380a6268e586efc4bebbbf8d2633a4fb",
    ),
    "simulate pbdrr decreasing": (
        "9e2b215d4fb2c0836786b06cc3ff9afc9bf9832d719c65282c37e7877ef35d16",
        "a4746b716cfb5bec59d29a9418981aab826da94a6df1d08a41c15be6f55ce81a",
        "9603dfe2a7f5ef18442df178ebae917466c99bf91403ce33315ea68db3f812e4",
    ),
    "simulate pbdrr decreasing paper-notes": (
        "9e2b215d4fb2c0836786b06cc3ff9afc9bf9832d719c65282c37e7877ef35d16",
        "a4746b716cfb5bec59d29a9418981aab826da94a6df1d08a41c15be6f55ce81a",
        "9603dfe2a7f5ef18442df178ebae917466c99bf91403ce33315ea68db3f812e4",
    ),
    "simulate pbdrr illustration": (
        "683673f86ff0522e7c15bb235956c255c819093e8c82b49ed72e057de741acf8",
        "01d2558405ab54519917ee37ae3bacec29dab96bbbcddc336028f3a8f9576433",
        "be417f12f287fa4bafb3633672510f70e699af6c16c12eb65dc84e7444ce5a51",
    ),
    "simulate pbdrr illustration paper-notes": (
        "683673f86ff0522e7c15bb235956c255c819093e8c82b49ed72e057de741acf8",
        "01d2558405ab54519917ee37ae3bacec29dab96bbbcddc336028f3a8f9576433",
        "be417f12f287fa4bafb3633672510f70e699af6c16c12eb65dc84e7444ce5a51",
    ),
    "simulate pbdrr increasing": (
        "92eb84fe8c4a1ef8f4e3337b51964120777aa9e3bb65fc565481aa3e419e9cd1",
        "4e4986912c13bcb6411cb8682dbb4d474c88f4dbee110b63b24e3a8ea60699ba",
        "767b5c01ed3488656a8a46b545f47129684482da9adf05e3c0795452b0807037",
    ),
    "simulate pbdrr increasing paper-notes": (
        "92eb84fe8c4a1ef8f4e3337b51964120777aa9e3bb65fc565481aa3e419e9cd1",
        "4e4986912c13bcb6411cb8682dbb4d474c88f4dbee110b63b24e3a8ea60699ba",
        "767b5c01ed3488656a8a46b545f47129684482da9adf05e3c0795452b0807037",
    ),
    "simulate pbdrr random": (
        "e2e4a001b60a7ad7f8de1feb6bb4905010152091e4ad8bd2cee6837a9b25b552",
        "9da72474cb55bad83f20c293b8c7564d76d740658be82ebc6393cfbce208b7c8",
        "0323f22fb1ff3846357f6c63bb86402d2a248ef21d2c9bf49ec2c44f1712c18e",
    ),
    "simulate pbdrr random paper-notes": (
        "e2e4a001b60a7ad7f8de1feb6bb4905010152091e4ad8bd2cee6837a9b25b552",
        "9da72474cb55bad83f20c293b8c7564d76d740658be82ebc6393cfbce208b7c8",
        "0323f22fb1ff3846357f6c63bb86402d2a248ef21d2c9bf49ec2c44f1712c18e",
    ),
    "simulate proposed decreasing": (
        "ed592889dc22be04f6fe2d038da10f0f72c635b031e687f4ce3c9a7d346dfd53",
        "6cd2f494a26ab0d0faf17df147e6c536970d43551b11748caceee01670f44bc2",
        "2ad423da88040aaede09d17509eab9f572bea1b621b57e59fb13f8d5d18c679f",
    ),
    "simulate proposed decreasing paper-notes": (
        "ed592889dc22be04f6fe2d038da10f0f72c635b031e687f4ce3c9a7d346dfd53",
        "6cd2f494a26ab0d0faf17df147e6c536970d43551b11748caceee01670f44bc2",
        "2ad423da88040aaede09d17509eab9f572bea1b621b57e59fb13f8d5d18c679f",
    ),
    "simulate proposed illustration": (
        "d73e5a35c3ffa98766bd97002971e59b7aed229361a721fb265c8e2dceeb63cc",
        "d808b36b1dbf81e908de6b43c33d29a872ac279d4fbda879e79e64110cc867d5",
        "f2bff5942769358755b3200b34c13d3e6e9f82977e07e40440a11eba886869c2",
    ),
    "simulate proposed illustration paper-notes": (
        "d73e5a35c3ffa98766bd97002971e59b7aed229361a721fb265c8e2dceeb63cc",
        "d808b36b1dbf81e908de6b43c33d29a872ac279d4fbda879e79e64110cc867d5",
        "f2bff5942769358755b3200b34c13d3e6e9f82977e07e40440a11eba886869c2",
    ),
    "simulate proposed increasing": (
        "be98be139839d77a2ecab919cd4f28662679c5308cf8d8a1a047ad7afb319ce2",
        "d4bf25f87d08c5e6655df78b774f213fe585c3c37b52a61c334c2497b323b453",
        "12c603dbf423f5d9e04cdc8960a3312ad9e4b80c575375aace9b31669e5489d4",
    ),
    "simulate proposed increasing paper-notes": (
        "9dfb2528ea0d111f4cd7cca7e7cfb6848880791689352398832d69129890d68b",
        "d4bf25f87d08c5e6655df78b774f213fe585c3c37b52a61c334c2497b323b453",
        "12c603dbf423f5d9e04cdc8960a3312ad9e4b80c575375aace9b31669e5489d4",
    ),
    "simulate proposed random": (
        "de4cc6c240b64f6796e3a00c6450fcda9afcfb59d13d99974f045e5ca521d65e",
        "1b0e2deb916396309ca035ef1e5c0f0f764895532d4f817f7bbe8f67a501cb3c",
        "b04bedbdbe8c93927f5d9ebc6a0286df28eb4d412112a29a6a8bdc6535db1c63",
    ),
    "simulate proposed random paper-notes": (
        "c88e4008bcd0eec13b20654602655cf22f631e6bef520e759a66b6289c3fe045",
        "1b0e2deb916396309ca035ef1e5c0f0f764895532d4f817f7bbe8f67a501cb3c",
        "b04bedbdbe8c93927f5d9ebc6a0286df28eb4d412112a29a6a8bdc6535db1c63",
    ),
    "simulate rr:7 decreasing": (
        "3b34fed538c94a99ad82be4a2732d5b68a2d00ded879fa2e12c7779e537a8286",
        "fddaa49c990778508a5c3c960fe82eaa5a8f511d4fa6bc7610d4541f8db0ce9f",
        "bfc987de528f3c57ea690b012499ccc48b1880d2f7eae82880e24deb18be4831",
    ),
    "simulate rr:7 illustration": (
        "27e1e8f54471112a1b68f190576f1041a23b7667c66a9e868038c64ca14ae628",
        "0e8fd7f8884c59ba04656c5d320d7bcca8ecd57d0a105ce6cb89d2ae91d4bdfd",
        "40ba4ab314ab00fa2c63a577b3b6b54a563d0b4398fc28ca03e8999d535ae8fb",
    ),
    "simulate rr:7 increasing": (
        "322d62054f914f8af72e8f924bf298b8a7ca28d7adbecab6720aea818a99fb39",
        "7775a8aa486cf8af3361b1009b20a80b6fee75b64f9f2727980b01943cf21b8d",
        "3ba7976d0e5757bde2320ac9e5142b20f20182186b22cc55e79dbbddd94ec772",
    ),
    "simulate rr:7 random": (
        "048e45ad3aaddb94cf46574b9e3c92f6737a1281850803873c3ab867771fd3dd",
        "a5c6a984e7c4755bd3ee7c3ad58d7606384336021d83de871db9f1e327262648",
        "0e41c2cb8a795589e50c0fb4f0960ee45e0e290e714a7c58e98f4af79c708388",
    ),
    "simulate srtn decreasing": (
        "78f60e6610b93366efc57470dba272312fbdb5cfc0159056c986024a9a75891c",
        "91e3629aa9dc109e2e0de9d86e00c5e3176a124634115080317086942a2c0237",
        "e2f0add12f27e42e3c500ac0281d63d42243508f04b1c02f3f520219b2fa8d49",
    ),
    "simulate srtn illustration": (
        "6473815af9099604a60d59fd4a90b5c3bbcf66fe5c928259ca295a6e4a5a54f0",
        "67ce4e00a9cc0fd0b7d8ac33546efc86e3c1996724d70db4cee8f61cea5b54d1",
        "2881e2cbaf51118db919f7a25266f58d17c8cc52e5374a0d12f0f9081fdb42fa",
    ),
    "simulate srtn increasing": (
        "3c58e171d96843a037cf080c6b47043b6231f7f0a81b0aa0eab5dd3e9547974c",
        "8b2d465fb6bf166ff8e92fc2f78e52634471ba03d99755733d95850208ee79a6",
        "bd470f96b37fd3ec8304fa33638ddfdd46d993737b76bf14072e949b08f45044",
    ),
    "simulate srtn random": (
        "e1a3e70d3e9e961b42cf08863465bcb68f60122e0a5c84cded2c43f2e0100c20",
        "cd39a08f1a9e1907093095dfc3f9e7555a512c9c5c72012900a174b83be99841",
        "95cc966fee033d81a4d9e64a7fb788b09a51434dbd31926f2a3c4fdfa3229fc1",
    ),
}


BANDS_GOLDEN = (
    "61ce5b9126435e82c0e6e68fb0d2fa1329b4725abf3fad3843dfa608bcbbbe4a",
    "8bd60241525e85e04c66e58f490783ad25caff13bf2acebd33a503d8370162b7",
    "b41546a8ccfb46b061c6ff5eb21de3b470bf7f08c9cd63e114cfa12cf0d69c06",
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes(case, tmp_path):
    assert digests(CASES[case], tmp_path) == GOLDEN[case]


def test_cli_bytes_across_digit_bands(tmp_path):
    assert bands_digests(tmp_path) == BANDS_GOLDEN


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            stdout, js, csv = digests(CASES[case], tmp)
        print(f'    "{case}": (\n        "{stdout}",\n        "{js}",\n        "{csv}",\n    ),')
    print("}")
    with tempfile.TemporaryDirectory() as tmp:
        print("BANDS_GOLDEN = (", *(f'    "{d}",' for d in bands_digests(tmp)), ")", sep="\n")
