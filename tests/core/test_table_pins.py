"""Golden pin of the sigma* tables the simulator and the goldens run on.

Each digest covers one table's length, occupancy pattern and the task
name at every occupied slot.  The inputs are the pre-defined task sets
``IOGuardSystem`` hands to ``build_pchannel_table``: every Fig. 7 cell
of seeds 1-3 (the grid the benchmark's fig7 rounds run) and every
trial-golden case, each built under both placements.  A change to the
table builder that moves any table changes a digest here.  Regenerate
only for an intended behaviour change, and say why in the change log:

    PYTHONPATH=src python -m tests.core.test_table_pins
"""

import hashlib
from functools import lru_cache

import pytest

from repro.baselines import IOGuardSystem
from repro.baselines import ioguard_system
from repro.core.timeslot import PLACEMENTS, build_pchannel_table
from repro.sim.rng import RandomSource
from repro.tasks import build_case_study_taskset, pad_to_target_utilization

PRELOADS = (0.4, 0.7)

#: (label, vm groups, utilizations, rng seed, rng key prefix): the
#: Fig. 7 cells of seeds 1-3 and the trial-golden cases.
SOURCES = tuple(
    (f"fig7-s{seed}", (4, 8), (0.5, 0.7, 0.9), seed, "wl")
    for seed in (1, 2, 3)
) + (("golden", (4, 8), (0.4, 0.7, 0.95, 1.0), 2021, "golden"),)


def table_digest(table):
    """sha256 over H, the occupancy pattern and the per-slot task names."""
    digest = hashlib.sha256(f"{table.length}\n".encode())
    digest.update(bytes(table.occupancy_pattern()))
    for slot in sorted(table.entries):
        digest.update(f"\n{slot}:{table.entries[slot].name}".encode())
    return digest.hexdigest()


@lru_cache(maxsize=1)
def pchannel_inputs():
    """``label -> pre-defined task set`` exactly as the trials build them.

    Inputs that repeat (the 8-VM cells mostly split like the 4-VM ones)
    are kept once, under the label of their first occurrence.
    """
    recorded = []

    def record(predefined, **kwargs):
        recorded.append(predefined)
        return build_pchannel_table(predefined, **kwargs)

    inputs = {}
    seen = set()
    original = ioguard_system.build_pchannel_table
    ioguard_system.build_pchannel_table = record
    try:
        for label, vm_groups, utilizations, seed, prefix in SOURCES:
            for vm_count in vm_groups:
                base = build_case_study_taskset(vm_count=vm_count)
                for utilization in utilizations:
                    rng = RandomSource(seed, f"{prefix}.{vm_count}.{utilization}")
                    padded = pad_to_target_utilization(
                        base, utilization, rng.spawn("pad"), vm_count=vm_count
                    )
                    for preload in PRELOADS:
                        recorded.clear()
                        # An empty memo sends every split to the builder.
                        ioguard_system.TABLE_MEMO.cache_clear()
                        IOGuardSystem(preload)._split_with_fallback(padded)
                        predefined = recorded[-1]
                        key = tuple(
                            (task.name, task.period, task.wcet, task.deadline, task.offset)
                            for task in predefined
                        )
                        if key not in seen:
                            seen.add(key)
                            name = f"{label}-vm{vm_count}-u{utilization}-p{preload}"
                            inputs[name] = predefined
    finally:
        ioguard_system.build_pchannel_table = original
    return inputs


def compute_digests(source, placement):
    return {
        name: table_digest(build_pchannel_table(predefined, placement=placement))
        for name, predefined in pchannel_inputs().items()
        if name.startswith(source)
    }


PINNED = {
    ('fig7', 'contiguous'): {
        'fig7-s1-vm4-u0.5-p0.4': '379acd3a69d83facc1e5354f54cfa29a85f5d718d2a8972352572c9332882d36',
        'fig7-s1-vm4-u0.5-p0.7': 'a2c9306a05189aa1be7e327d7d350457dcb6188a383813c8b7ca3b339ae20543',
        'fig7-s1-vm4-u0.7-p0.4': 'd65c9a0ebf5c8fd52bb189fa1f0fd3e98c1b14f03a35e3664e1235355ad6749a',
        'fig7-s1-vm4-u0.7-p0.7': '4d026169cbacbfb1b6f2765a056a240d85fd77f5e99b0955be971a4be3f1a7ee',
        'fig7-s1-vm4-u0.9-p0.4': 'bb7ba5b838bab729ac97b7a485f4cd2c188afec09510e1aa1cec9924c962f587',
        'fig7-s1-vm4-u0.9-p0.7': '3c0aa6bbc239ca8cd27f6cbaaa9f8ff0a7e699a5ebf5cec6d0336109664dbcf3',
        'fig7-s2-vm4-u0.5-p0.4': '1b9b2cc65839dfcd7e548c0da90e7ba729386cedb2777170d1c2539d9976c283',
        'fig7-s2-vm4-u0.5-p0.7': '1961b98ec8f9479be48c8ace0d79f203e46dc51928e5ffe2c953805a3e403158',
        'fig7-s2-vm4-u0.7-p0.4': '26008a5772cf2f587292b6663ee322cc18febec4b2185768095e76b4b8721d17',
        'fig7-s2-vm4-u0.7-p0.7': '275efbc098f6b9142c17d1382b867c093bc6998c519b02303febde92237a6b28',
        'fig7-s2-vm4-u0.9-p0.4': '13c510a9c5a1e49d52c321d52f13a8c3db2dbee5d22e87c9378b8ae9691d7da5',
        'fig7-s2-vm4-u0.9-p0.7': '5b1e76c26b2c0b6c658fd7fa6df335f4de11970fe256672d9ea961c38b2a8052',
        'fig7-s3-vm4-u0.5-p0.7': 'ab052a8cfc91a41557af36f656dd0b4c2ee6c8bffc6fd02d4ce7d04a737343b7',
        'fig7-s3-vm4-u0.7-p0.4': 'f55c018e00a087341151e4562fbdfcc525ee45717b97e63dd9c09ea07c53d135',
        'fig7-s3-vm4-u0.7-p0.7': 'e8259d4ff9b9899e509c491969e05cae4b641c2c901c52d7c6ee1cb084a94f25',
        'fig7-s3-vm4-u0.9-p0.4': 'c2570ee366963208a2c887750cef1e8a9f704dee15eeb36d478a522ee0c1823d',
        'fig7-s3-vm4-u0.9-p0.7': '888083dcaa3813a2c7b2baa42dcc02b5508bc68ca7f423890af072e68ea85860',
    },
    ('fig7', 'spread'): {
        'fig7-s1-vm4-u0.5-p0.4': '13d36379d3c4efc4751bef4a1914f3793617ab5f15ffd3d8c7e8c3e7500eb34c',
        'fig7-s1-vm4-u0.5-p0.7': '676e6ce1d2bd21cb1b7a043f9657dcf6a05d4d97c85b09e7fd73271c0e087d6d',
        'fig7-s1-vm4-u0.7-p0.4': 'e07c31f7c55a2e13f5546a429b4ee9a93f7371b8f273ae64c9354b1c73d48082',
        'fig7-s1-vm4-u0.7-p0.7': 'cf6b3a2f6a3a7b6a99d66e0ba4380fc17b55582d73f51b9f10f4294c3d137cd2',
        'fig7-s1-vm4-u0.9-p0.4': '9a24986dfaec790d8ac7fd6c7867b9ee5b707d52709c2809b75a5f50b8aad7c9',
        'fig7-s1-vm4-u0.9-p0.7': 'f4beaaf8cbb01735039679e7483f906ac86e20e98f06e17ddc061a5996affdbe',
        'fig7-s2-vm4-u0.5-p0.4': 'd380fe8dd19ba84a1ad84f19795d342843fef7757f53deba6e5be32c06af1986',
        'fig7-s2-vm4-u0.5-p0.7': '6171b4d616d3010eac2043cf114a5fe783853e17d3d9585810af3ef9c70dbe84',
        'fig7-s2-vm4-u0.7-p0.4': '623f30a20173c0f9a2fd2ed5bda6315cf5d94eef0b8095d00fe172577b622551',
        'fig7-s2-vm4-u0.7-p0.7': 'd31abd63404ea83716ef04923337e3900ccef9e2e09e49c09a3d420b82eb80e1',
        'fig7-s2-vm4-u0.9-p0.4': '9c669cb4f1c345e25c5f58fead1fabb1b004a47b2047cf870b2833c16632c84a',
        'fig7-s2-vm4-u0.9-p0.7': '25b96dd8a5b2c5d8e5adc9d77484bfb8c514af45c5cca1dee8e2c0a368858359',
        'fig7-s3-vm4-u0.5-p0.7': '39fcc1833986419124e70a8ad875ec01b433d25ce3a981689656670501f85ee9',
        'fig7-s3-vm4-u0.7-p0.4': '99952333577c18908313772238ee5dd05e572855fdfc6299c97efbbea04613f6',
        'fig7-s3-vm4-u0.7-p0.7': '9f1e62a387a5da70025082a4451f109b12e17b2f342473f6a38b7b3e5e3a043e',
        'fig7-s3-vm4-u0.9-p0.4': '28ef0a22513b321c7112f81fce23c391884ea9c9ce851676f1e1d38cf9cf058e',
        'fig7-s3-vm4-u0.9-p0.7': '0365f1c16cc5635351f0ab7afd58d7ac3591f2c315ee6959f3fcc3d696739d90',
    },
    ('golden', 'contiguous'): {
        'golden-vm4-u0.4-p0.4': 'c14ad19e62d9a1098c923046a453dadfaf013f2585185cee04a2203a52437ef2',
        'golden-vm4-u0.4-p0.7': 'acd944c57b2c2eda61cd519230439c1e69abca41316bd1393b067203bc3ef550',
        'golden-vm4-u0.7-p0.4': '6f5c96550ff30cfc7b0f78ddc090cdd7f514699f99f8b00d5c80a581c5898215',
        'golden-vm4-u0.7-p0.7': 'cf1a3bde0ebecf88bb55ff14f8aba8ed6314f62de3fc793e4d5ee2d296930cc4',
        'golden-vm4-u0.95-p0.4': '94bfed3fa705e2b496ea4f6fc9b9e28c85ef05f9ef306f54373da3f24423405e',
        'golden-vm4-u0.95-p0.7': 'ca241c0ddbb7a3d52a365c6779556edd2a83388314669d4be7bbbcd0684e1eda',
        'golden-vm4-u1.0-p0.4': '7ae7d81c3719b5b2fefb91a5fb4cb30d583605431c7a670fb45724af061038aa',
        'golden-vm4-u1.0-p0.7': 'a399bcc0be4fdeaa3ac19c5d6e466b30bd4081d8e6ac10a085b1d5e416941f96',
    },
    ('golden', 'spread'): {
        'golden-vm4-u0.4-p0.4': 'b5458959b1d081770f1e89cc71411aa10c34913d0c52819e5aec3174b9338fc5',
        'golden-vm4-u0.4-p0.7': '3270054ee0b7413418bd03a2de59aef6c48be3626fd39deaa8dff24909932cc1',
        'golden-vm4-u0.7-p0.4': '4051a86ac16574e9bc8aec870aed3aa67c3e5c92c00cf9a048cb6058334af1da',
        'golden-vm4-u0.7-p0.7': 'e74d54b6426c4a2e79bbcdb74ea0bee8e737791bbe37ead416ba1a91e18ca604',
        'golden-vm4-u0.95-p0.4': '7331e3d1dcf2837ffc85bb585ff6348be6cf12f60fd3c9b6a6722d44a281ffb0',
        'golden-vm4-u0.95-p0.7': '33404fde6586a29481bff2f9a4c0639e2f2b4c38a2a9d097e8285e7a39e73e2a',
        'golden-vm4-u1.0-p0.4': '7d7562d90d7a4b588df75f1e53ff7c7af10669147eb1c7d2994ee1cdca402d39',
        'golden-vm4-u1.0-p0.7': '5c92b452b25f0158d7114f8f86ef9dcdfca67f4daa1f5d290ae87e54d3c380c9',
    },
}


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("source", ["fig7", "golden"])
def test_tables_match_pinned_digests(source, placement):
    assert compute_digests(source, placement) == PINNED[source, placement]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("PINNED = {")
    for source in ("fig7", "golden"):
        for placement in PLACEMENTS:
            print(f"    ({source!r}, {placement!r}): {{")
            for name, value in compute_digests(source, placement).items():
                print(f"        {name!r}: {value!r},")
            print("    },")
    print("}")
