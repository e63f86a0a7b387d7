"""Golden pin of every ``TrialResult`` field, per system and workload.

The digests were computed with the slot-stepped I/O-GUARD trial loop,
before any optimisation of the simulator; a change that alters any
simulated behaviour -- a job count, a response sample, the order of the
RNG draws -- changes a digest here.  Regenerate only for an intended
behaviour change, and say why in the change log:

    PYTHONPATH=src python -m tests.baselines.test_trial_golden
"""

import dataclasses
import hashlib
import json

import pytest

from repro.baselines import (
    BlueVisorSystem,
    IOGuardSystem,
    LegacySystem,
    RTXenSystem,
    TrialConfig,
    prepare_workload,
)
from repro.sim.rng import RandomSource
from repro.tasks import build_case_study_taskset, pad_to_target_utilization

SEED = 2021
#: Not a multiple of any P-channel table length the cases build.
HORIZON = 23_517
VM_GROUPS = (4, 8)
UTILIZATIONS = (0.4, 0.7, 0.95, 1.0)

SYSTEMS = {
    "legacy": LegacySystem,
    "rt-xen": RTXenSystem,
    "bv": BlueVisorSystem,
    "ioguard-40": lambda: IOGuardSystem(0.4),
    "ioguard-70": lambda: IOGuardSystem(0.7),
    "ioguard-70-contiguous": lambda: IOGuardSystem(0.7, placement="contiguous"),
    "ioguard-40-analytic": lambda: IOGuardSystem(0.4, server_policy="analytic"),
}


def run_case(system_key, vm_count, utilization):
    """One trial of ``system_key`` over a freshly drawn workload."""
    rng = RandomSource(SEED, f"golden.{vm_count}.{utilization}")
    padded = pad_to_target_utilization(
        build_case_study_taskset(vm_count=vm_count),
        utilization,
        rng.spawn("pad"),
        vm_count=vm_count,
    )
    workload = prepare_workload(
        padded,
        TrialConfig(horizon_slots=HORIZON, collect_responses=True),
        rng.spawn("draws"),
        target_utilization=utilization,
    )
    system = SYSTEMS[system_key]()
    return system.run_trial(
        workload, RandomSource(SEED, f"sys.{system.name}.{vm_count}.{utilization}")
    )


def trial_digest(result):
    """sha256 over every dataclass field of a ``TrialResult``."""
    fields = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
    }
    encoded = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


CASES = [
    (system_key, vm_count, utilization)
    for system_key in SYSTEMS
    for vm_count in VM_GROUPS
    for utilization in UTILIZATIONS
]

GOLDEN = {
    ('legacy', 4, 0.4): 'e7ef1bb4648be200a1905c162dec1e9714639d8e1d9800ec4600b10848c9ac4d',
    ('legacy', 4, 0.7): '3bdeba5165ab489c4d2d7d8c62b875f792615a9dcd92332c9cd9a5538d8928a4',
    ('legacy', 4, 0.95): 'bd4330b4c4f40475b2cba191d426e1002f4c64d4ba0272c3a469d79c03110ebf',
    ('legacy', 4, 1.0): '5a420cbf8efdae70a269c910b18036899b1862c92a0bc8f8189ba1d9f0c4fd5b',
    ('legacy', 8, 0.4): '64dcf4d25ac39e5e917b10636d860641373edf7c897e6ecb8cd9b304b6e29d30',
    ('legacy', 8, 0.7): 'a7345f523da7942ddf3609a791d00d6fe22dfbce2431f0c91976e66183e0bf18',
    ('legacy', 8, 0.95): 'b400b8eaca21556d672384e8d18b2243ffc04707897d4df8d8e2c8e6721eb80e',
    ('legacy', 8, 1.0): '6bc0875cf947cfd27c2b0edcae7158949780fe2b422441b141bb73ce766c4c81',
    ('rt-xen', 4, 0.4): '726cd918c1c303939cb01cbe284d73c8756d0433e421f6c2f9b59fa5dcc6a9cd',
    ('rt-xen', 4, 0.7): '3e9f0b336f64fe17f4731845f05cdbb3943632a5b0f22463782f672d7267601a',
    ('rt-xen', 4, 0.95): '2a180aff70d7b1800f1102cad8825996b765f52c051013a15d8400341e456e06',
    ('rt-xen', 4, 1.0): '2fb65ecec6bdec4ac11cd29d982cbdc127ce3a907497e544ea81805c83f124cf',
    ('rt-xen', 8, 0.4): '25d7b58936bb5cc77040a9bd135d1a8e7db19067065b26f61bfd10f29a5d876c',
    ('rt-xen', 8, 0.7): '42d40548fc738d4d62ffe7dcbe0acb0f27056ad81e33fd294ea18f2e301f6a5c',
    ('rt-xen', 8, 0.95): 'd12939efad2ed40f6b60474f88a0c02e925f2619a0a5a1db2c4bd005fffc367a',
    ('rt-xen', 8, 1.0): '9f246d2ec476d2843c718272841ee97c08a43b63bcd7359689a5886128dca6cf',
    ('bv', 4, 0.4): 'e437778dc112dc0bf1051c5800d8b5f7f3ac9e3d56299ab918fcae0049f3bde5',
    ('bv', 4, 0.7): '4cd3bcf4da1b09ff0cf33a681803f0fd6dcb526f76cf999fa8bea3cc3dac8172',
    ('bv', 4, 0.95): 'bb10a8231a5cbb8fef5b9f82b2837d912b56893c9e19167dfc90895d7b4ac817',
    ('bv', 4, 1.0): '8b440af82e23abe475c0410f133124c37ebff032ffa9cd912bf51867018d9996',
    ('bv', 8, 0.4): '2b1bf6dadf63e057132914352b9b6503e9e71aef5150f6dbb9a268d931869d1d',
    ('bv', 8, 0.7): 'fe5fd66b1d1fcffedc0f6016c05197f52addde632a70bd44afa340a554e1d0e7',
    ('bv', 8, 0.95): 'abcfd195a78a4361c23e9900870d2e530aa5017dcf69468b0d299df9e947eb71',
    ('bv', 8, 1.0): 'f36be62a54246c1021d69f83dd09087d6cb5dc703c7a49d732d1115cab6f42d2',
    ('ioguard-40', 4, 0.4): '32c53a3ace828bcfe8b8ef4b4e56270f2a011802657829aed61a5d3e5363ed3c',
    ('ioguard-40', 4, 0.7): '6cdbccc00bbaee8bd5f8e0e94e713a982d1c7bfb95cd4de8b48b986a3545f6d2',
    ('ioguard-40', 4, 0.95): '03b29149050f0c1487ecbb412e6f4a1ae1c6df231fa16f73c0fc1c985ce1e410',
    ('ioguard-40', 4, 1.0): '127f77682102235f545709239a4e2b8a730dd0f7604f6164609065b42f125566',
    ('ioguard-40', 8, 0.4): 'ce4187a6508d267573624bd6157d3df6246af96ccdb51fac0693713b8b408299',
    ('ioguard-40', 8, 0.7): '25fc3f0522d47543a8addd6d66d0d4539c08bb34a7b2379990e6eeb94f98e69c',
    ('ioguard-40', 8, 0.95): '718f0f473af61ef471d43992236dc55404fed5ffa431efcd9b2215362aff01a6',
    ('ioguard-40', 8, 1.0): '53bcfaaf9f8a780abc7cad03eca8365b1c81a29ea0d88811295b48433e077ebb',
    ('ioguard-70', 4, 0.4): 'a36bf6ab567f38fc0c766322ab2eb5a6d0466a09acf78f5de77b2f248afe03d1',
    ('ioguard-70', 4, 0.7): '312dd0805c4bb65efaa315440c92950c9e3a07590716fa0f4dca7d319766c13b',
    ('ioguard-70', 4, 0.95): 'ca5191660568277dc4fe9fadce701dca750d13d8e406565fcfc882d0f8337789',
    ('ioguard-70', 4, 1.0): 'e891cf1dd4d6b0fc7dfa42f7829397c89aed6adb36dcee375a4fb2075234726a',
    ('ioguard-70', 8, 0.4): '4fdf218a99aa4f232b0c7fba1e8d019815f3592dc7e9763b000efd8cb26822a2',
    ('ioguard-70', 8, 0.7): '03366a185665b725139078547eb8fe1a9217e709b517a96a50fc50b1de066994',
    ('ioguard-70', 8, 0.95): '7bea5663ec5284b374957536fa4c593a702a7fd1f2636123df6e9035fafe4303',
    ('ioguard-70', 8, 1.0): '0571ddbf529c4eda18f999f62fdae669b2f41f06c0b9e99ab4bfa47c1e6da209',
    ('ioguard-70-contiguous', 4, 0.4): '6a9e0fcb421864c093008696f806b37b8883f3affc770cefc1e94b2a668a74ca',
    ('ioguard-70-contiguous', 4, 0.7): '87ed60539eecfd97f7fd6f6d0d80961c1cf75f39235a4fddec9b18a34e50421f',
    ('ioguard-70-contiguous', 4, 0.95): 'd8225856d7be584132f166194d2280d6912fe3f3205f18b7ef6ce6244affebc3',
    ('ioguard-70-contiguous', 4, 1.0): 'a53db787d42e4d15aacad30ddc0dc0b9c4cf55f464c610e84173fa338ab5df39',
    ('ioguard-70-contiguous', 8, 0.4): '8c157b7705b0acc49510780826f2bc7a7a29a78e0333f8fc9492342576f31879',
    ('ioguard-70-contiguous', 8, 0.7): '00c4ea8c1adf1eb65ae033d2a1d41ba0abf03c53cb4470fa41eb72d484fae3fa',
    ('ioguard-70-contiguous', 8, 0.95): '2fc613d36fb70697b08d5bdd58c694391581682719ac2c5bbfcbbcc2bd5ed512',
    ('ioguard-70-contiguous', 8, 1.0): 'f992d9b2b31bc7f401a37617051c8d4a47f1306cc55ba595983a3c77fd0813fc',
    ('ioguard-40-analytic', 4, 0.4): '94adee838548b60ed5478fffcfd632fd491291a431fe116fd1944139db9ccadd',
    ('ioguard-40-analytic', 4, 0.7): '9da48b92f938b35708e8afda158ad70d6fbaec18da7ce722ce0f8ad7eb1d85a0',
    ('ioguard-40-analytic', 4, 0.95): '0ca0138ed1b8fa734b2ec37600617c2352a58e110e206c4759ebd7ff84d9fa73',
    ('ioguard-40-analytic', 4, 1.0): '65174dd2ade6faf2e1bab526f410b09c6f173f4b6183075cbe98f34429547c83',
    ('ioguard-40-analytic', 8, 0.4): 'b647d76c803707264eba7e4ccab3b50cbc20083ecb0bc2ce815538e2ef6f7393',
    ('ioguard-40-analytic', 8, 0.7): 'c50009c11f9310fd1dc4d94d8b2c9551ca32e9f8ecddfb12510c90e7dc7e8a2c',
    ('ioguard-40-analytic', 8, 0.95): '1529fa4ba111fb2f82ee0c541f8002e9827d2c8dda4fc0e3ee275ca5c06c650f',
    ('ioguard-40-analytic', 8, 1.0): '20630c0c9242fc389ae193e719ce9e9c1548294ae0af64524b5564f5f9a1f947',
}


@pytest.mark.parametrize("system_key,vm_count,utilization", CASES)
def test_trial_matches_golden(system_key, vm_count, utilization):
    result = run_case(system_key, vm_count, utilization)
    assert result.response_samples, "collect_responses must be exercised"
    assert trial_digest(result) == GOLDEN[(system_key, vm_count, utilization)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {trial_digest(run_case(*case))!r},")
