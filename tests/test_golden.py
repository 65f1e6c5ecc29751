"""Golden traces: sha256 digests of evaluation cells and of one rollout.

Each evaluation cell is pinned by its metrics CSV, its heatmap CSV and its
summary.csv row: scenarios 1-5 x {fswf, random} x seeds {100, 101}, plus
stdsh and mappo on scenarios 1 and 3 (seed 100) replaying the committed
acceptance checkpoints. One 600 s rollout on scenario 1 is pinned array
by array, with the hypergraph critic on and off. The recorded log-probs
are not pinned: the updates recompute them. One free-running scenario-3
world (no controller, so the initial greens never end and queues grow far
longer than in any controlled cell) is pinned second by second: every
step() record, the metrics log, the completed trips, the lane entry
counts, the discharge events and observe() at three instants. Edge worlds
pin scenarios 1 and 3 under random control with configs where a
per-second and an event-driven movement model could part ways: moving
vehicles below the delay threshold (on every link, or on tram links
only), a one-second tram dwell, links crossed in one second, speeds
and lengths whose per-second steps are not round numbers, and car
occupancies drawn with a Poisson mean of 0 (no draw) and of 12 (numpy's
rejection sampler rather than its multiplication method). Each is pinned
by its metrics table, completed trips, discharge events and observe()
at every decision.

A refactor that changes none of these files or arrays leaves every
digest in place. A change that is meant to alter the outputs regenerates
them; print the current digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stdsh.baselines import random_policy
from stdsh.env import CorridorEnv, action_mask, drive, observe
from stdsh.experiment import run_experiment
from stdsh.sim import load_scenario, resolve_config
from stdsh.trainer import (collect_rollout, corridor_train_config,
                           make_train_state, world_seed)

HORIZON_S = 1800
ROLLOUT_S = 600
ARTIFACTS = Path(__file__).parent / "_artifacts"
CHECKPOINTS = {"stdsh": ARTIFACTS / "stdsh_full" / "model.ckpt",
               "mappo": ARTIFACTS / "mappo_hg_off" / "model.ckpt"}
CELLS = ([(s, c, seed) for s in (1, 2, 3, 4, 5) for c in ("fswf", "random")
          for seed in (100, 101)]
         + [(s, c, 100) for s in (1, 3) for c in ("stdsh", "mappo")])
FREE_WORLD = {"scenario": 3, "seed": 10003, "seconds": 1800,
              "observe_at": (600, 1200, 1800)}
EDGE_CONFIGS = {
    "all_slow": {"speed_threshold_kmh": 60.0},
    "tram_slow": {"speed_threshold_kmh": 45.0},
    "dwell_1s": {"tram_stop_dwell_s": 1},
    "short_links": {"link_length_m": 10.0, "side_link_length_m": 10.0},
    "odd_speeds": {"freeflow_kmh": 30.1, "tram_freeflow_kmh": 17.3,
                   "link_length_m": 257.0},
    "no_riders": {"car_occupancy_poisson_mean": 0.0},
    "full_cars": {"car_occupancy_poisson_mean": 12.0},
}
EDGE_WORLDS = [(name, s) for name in EDGE_CONFIGS for s in (1, 3)]
EDGE_SEED = 20_001
LOG_FIELDS = ("seconds", "net_delayed", "net_queued", "int_delayed", "int_queued")
BATCH_FIELDS = ("agent", "t", "obs", "mask", "action", "reward", "dt", "ret",
                "done", "critic_input")

GOLDEN_CELLS = {
    "1-fswf-100": {
        "metrics": "e581ec39ffecc8f04093709eecdcd8c91288f08541f8cbf7ad584fe17eb7b9ec",
        "heatmap": "f509a66d16db9f4467499ea3ff6f9a6552f7068e6e09c5cdf9b8d2ce863014b6",
        "summary": "176bf2a42864e4955ad3b4e1a81b70afbabd614c3f05577a2ef91cb7b2fa4290",
    },
    "1-fswf-101": {
        "metrics": "d29fa5ebc3eee8d6c76e98e9fa9aa755d52ef152bfd72a60701f8c86af4686f8",
        "heatmap": "9a484d0ad64785d02ab81cdc0c3429e25edfbf02a98e6c1c9694279499bfdf82",
        "summary": "993a4940f47d3a314a939ce3cff64d22795ef79c3dc92622183b0e6ad19b2dbf",
    },
    "1-random-100": {
        "metrics": "1240a5f0d8dcdd5ef0b4da79aa027c3f177d230eeb4e574623e55a85ed1df8fd",
        "heatmap": "9efb9184000e1079b90e6577e63d2d06c4509723ffcc409025201f4f3400536d",
        "summary": "7a3efad97d91ef6b7a81de7a9866ead9c348eb4977f742968ff7d81a719cc439",
    },
    "1-random-101": {
        "metrics": "391a1bca1f8efc52851c1cc2438ee91ced87f642662ad30df421ecc706194cbf",
        "heatmap": "263d879a4a1c349cd7934e3c300bb161a48cc5fb86b1f09cf71714fd296751e8",
        "summary": "17457cfe3f4bfe1f9f0245ed596dd537add428aacfea4ee026a55a6f54fa9dcd",
    },
    "2-fswf-100": {
        "metrics": "a50af155ce25a1e280bed3c4bf16497eab65cc95b49f042558acc88d14962d4b",
        "heatmap": "261f4a9050587e3ced05590257cec25aae2279483238dfc956b447ad6bf9fe69",
        "summary": "9113bae59734f1d124a7c13ac21a4ea51afb13b2e86db75e38ec65df793b7046",
    },
    "2-fswf-101": {
        "metrics": "9ed1dcfc682f877f4f9c31022be2d59e3eb65d015ae40ca940173a1190d7bce3",
        "heatmap": "47685e56ac90311215cc88eeba253f2ef2d471fcad6b0bfc871386646a376acf",
        "summary": "38b365d5b312453c86afa12a9b5d455831a5b9c9e9f3e977392314a0af1669ab",
    },
    "2-random-100": {
        "metrics": "e88cd9cc9b9698a4a3a181714130de717fde5a2b118ad2b62b38d4f5786cddaf",
        "heatmap": "269c0339b1eb584a8d1f2c51dc9017d48ef4850add84530f67879c4aae813f88",
        "summary": "c3f8437bf4f3b93e52fd1ef8aec74f3a13d4d6f4ccad8c5c1c90cd6fdb4f184a",
    },
    "2-random-101": {
        "metrics": "499421063336410f6094164de76c7466eaab39c9e1dfa62521fc24fa838c76e8",
        "heatmap": "177f0a736c5c3b3924aca3bb681665f2e115278955c7769ee960dfae39aaa6d2",
        "summary": "63f17ec295ac18b4ab045d90cb4daac8aedd4c7fbe4a48a979e2865ad720f858",
    },
    "3-fswf-100": {
        "metrics": "5a785ca35cdfb8d747fb7b40f8629bcf3495bd0ceaf1ff74a0907017a5bb6db9",
        "heatmap": "9b0d12de84c4031aac839aa6ec45d3f832359e041267fc83c8da43e20bed2e0e",
        "summary": "1fbca8de470c4f75ddc0b7fcc80ff2639bb591fab37464857ece289c20e5ca58",
    },
    "3-fswf-101": {
        "metrics": "6e76ca0fa45ab28f23d706214a8076f5f64f405afc0f91017dac559e012aab03",
        "heatmap": "cc9633a333222dd6210b6603659510801f9fffa8d1534a62ffcd6e4c2f2597c9",
        "summary": "73ff6cc500cd0d8061e1e3b9d7e9a10d261cfafb02376feae9d9462e017cb066",
    },
    "3-random-100": {
        "metrics": "cea22455144f6222cd0ff3dc3ce569b6f55eed637e98c8e0dc6ecb3b11f0dfd2",
        "heatmap": "6ae460f233dd69bcf83166b67964e2cfa57190562fca1b87e6a4f6834c953a38",
        "summary": "f3578984f627bc33409795903200f1995415ea4ce50236d7c0f7a41ab82e7ea8",
    },
    "3-random-101": {
        "metrics": "61e0affe5d3853a51b73f4a7875d650cfb5760b5f67d959bc029a5cdf844eef7",
        "heatmap": "2bd7fff97c2d56f48fb58aed221f774f3c120eadf831d524bd021a5111c26b2a",
        "summary": "4b53931860af0c732cf430ff6def60a3f2d39dab78a121c91ff779a0dd5f3dd9",
    },
    "4-fswf-100": {
        "metrics": "2a3d2bc9772fb45a0c8d0d8d4a485a6e524d06aff055a6ab2a3c235a1252b125",
        "heatmap": "c090cc80e8546d63c8841c3c9f75a54dd1b3e8b4e52d0bfb029102bba4baf2e1",
        "summary": "4a57528dec98f33bfa9bade20a8c949bba3e13f1140ec6641ef9d0e9c6728585",
    },
    "4-fswf-101": {
        "metrics": "ff321f2de383301a4a2425678b93af3a88bfe78ff478e817ffeb97d70971d685",
        "heatmap": "a20d5fe4e4fb3e70508a1aa9e540bd06d5d157055625b788c7aaf5c229706d84",
        "summary": "f18d801103199f91a02f3d1be3cd51392c5d949d45748bac029dffb92c5bafed",
    },
    "4-random-100": {
        "metrics": "9b8f04de6b347b7c185d0fdc70821d8afb2755ceac6c878d3bcd73554b6c3b42",
        "heatmap": "995a5c42385f5567a436ebf44a12c887fbcea84afbee550e2bac80ef00080e26",
        "summary": "2ee956686620911af8ad095f86a29785ee42fb982952f1ff5b91c2079d329f33",
    },
    "4-random-101": {
        "metrics": "e59f234745bcf5e6626950a8246c8b8d5b0aea09ae9f3b3f1c6eb3a843ebf8bb",
        "heatmap": "4dbbb438c548ae861d1dfb8b1c4c31df588db87bb31527fd1d87839606304a91",
        "summary": "da5065bb272aff60381d1bb668d2e456552ae1498afc9c54d1062fec5af74a80",
    },
    "5-fswf-100": {
        "metrics": "846660f05e49355e3c4abc82ccff13d9305848bb6ee2989622141d23c629f0a4",
        "heatmap": "f5f418b50272d6255b61c486cb362c0f05882fd3760e6b55ef54c5cb4be2ef7a",
        "summary": "2c931876d6fc7adba60d70e5158d7651e78f204ca060529706b035e763e5541c",
    },
    "5-fswf-101": {
        "metrics": "b0365c77a741695be5ad8024e8b00aceec92802e3a1743bd1e3259887cbe9c84",
        "heatmap": "4b09385873a95954df9ff8fef9b9412c21666e88bddac46f1f8b214510e23321",
        "summary": "96906017194d1cef4f13b117a329ea77b152d432bea22d3d89a1a41c37ab751c",
    },
    "5-random-100": {
        "metrics": "a5b6621f5b6483a4231d4bba42b5e7facf1ef41e2d1dbc916b6231b1c2a286a3",
        "heatmap": "38b99cfc3648cd9294f74212b7662be2fe7a315c18bbcfee27c32e8d890ae389",
        "summary": "07dfbf61148c169c22bec658054d866b81f3268b3bc3d4328b0698bf4c06b841",
    },
    "5-random-101": {
        "metrics": "6a69ee91d36f0f6b62877084ecaea906e6219492b2046e2940a01ee0499d208f",
        "heatmap": "8b79a0ad939bac2c1ef87a49febfcc474f8781139d47734795d33c1d150e8f19",
        "summary": "a43f876e5d91708fd44ede42999b15953ca5ef0194f2246a69a8bce41db76e6c",
    },
    "1-stdsh-100": {
        "metrics": "98276046e8351c25dc4ee07fe5af518a6afcb60a9e878ee74e0f6f8b25e57f6d",
        "heatmap": "bac439979066fd68576fab20b6bffddd4ca978e9ca800eb0b33579b17bcee090",
        "summary": "f86b9eebabd6a68f9be7e0b8006057d92df671067e53aee8793b7b4d60f02a34",
    },
    "1-mappo-100": {
        "metrics": "bd605a414055e1cc174cfc1f3b68a10aa4d44a548a0fc6c700a45f058754393b",
        "heatmap": "eb50c4eed3544b9ae68df385a12da261fb470ae740dec91526c4df16a52fb481",
        "summary": "d10fca7242bd2d5bfe7fb9b4efb69b32bd402435eac5a65aa0e4cb1b045eed05",
    },
    "3-stdsh-100": {
        "metrics": "966bf4e9295e983d6094d136220d389c8585a60e4787fb7b056a508e536c2c2c",
        "heatmap": "2dd308f11b353bb9a388146f3280b645ddf8162369af95075c58f948591f1d0d",
        "summary": "b2706b068e60f7fdf827282ce2ad9095e86a7bce2c23df969fdf20ab856f869a",
    },
    "3-mappo-100": {
        "metrics": "bfcb74ad32816800b6ade0d449a0a489f293cd7f04f0b149089342dfbe3a372d",
        "heatmap": "e7621d097b416a9c96dccd6d2a2ffc6215e0ea1bcabd6403a616e6644c6351e6",
        "summary": "9db35ca1e36ca21635855877cc402837286602818ed7bf557bece87cb632e779",
    },
}

GOLDEN_ROLLOUT = {
    "hg_on": {
        "agent": "9fbfc19128f9122d11c308ec6df1d4f38038798dde919203da5318031672c70c",
        "t": "a97fc33ced0f38ef5cda9e2a311affef12c9a968726df067b2f6e60832072a88",
        "obs": "788fb95368cb90fc6f40d234b633ee1339ae445308972eb13b753d8df35e4be8",
        "mask": "bd958580465cc3febcd41aec3425a52650b2b73c4c2b1e3fac07bdc575163030",
        "action": "fc41a1d5a2eb29b16af1c67822a00373208f8b491a6e02c3fea3a4d22366cfe0",
        "reward": "82899c1e30524411e879adbc93b3762e975293e9a1f96009ab7bd3d05d6fdcbc",
        "dt": "c61e0405c6afffd9ce4253267f1761d90b77ba524c0dd8c11ea02e591d00946b",
        "ret": "b5915e09d6efe3000e8e69b8db5874908e030c61cd97599885e68fdd9051d0ef",
        "done": "48cfcd6e757a840f1e8fda597c27ebbfbbb37ef1d7707c7bb5b5a245c3aa3b2e",
        "critic_input": "38135303eb9d55329a771a94648be5ab8224f92969618f0ab1723edea8380d24",
    },
    "hg_off": {
        "agent": "e8aa968948021e949da0598e215d40180a0081fbe39d62449cfac21188d4df5c",
        "t": "004b8f297fa79c61d04f5015922f64eea0cc8665da173844b02d09bd3dc3872e",
        "obs": "832004dc37735d0ea4d98f4b9551955adf6e892bb648f46e6990cd55a9f4469f",
        "mask": "818208f2e7a6ba1e784f4c38990a70a9bc49c3992926067f48d6c5dd2777f0ff",
        "action": "f5af1b757da3791591ff9ce655c40bbe3a749bac063321da73f54dde643a906a",
        "reward": "46cb4cbbb810fbb19fa24af719a0c35e09095a2000bfd4c6ed783d52dfbc8d90",
        "dt": "53eb0bef56f0329c5c430a39f51eb444a2ce78eb2c2048c1bdc71aebde408164",
        "ret": "c7cd3f3b59bcd6853f6bdff1d27679b278d5df6d7f5593b1e7d9f4869dee7877",
        "done": "e5df80712f75862e3ebee38af4457a921c6959f14ce549e10215db3189c4d3a9",
        "critic_input": "c53c4e8994c03390da02b24e460c172824920847a52b8a691db3a12bbbac5ca5",
    },
}

GOLDEN_FREE_WORLD = {
    "records": "bef9dcbac941caa21c98fe2e9b8580f29ba9583e2cc56034adb9256dd62b1769",
    "log.seconds": "48fae24ba29a0567f3e289a901fc7b54c80342286be5bb4914c83b4cac7a930a",
    "log.net_delayed": "a995aed22d8d8e3b603b0c74b9c305119a365231001aeb40ca93d350b0ccc0b5",
    "log.net_queued": "91b46b91ec8320b5501ef9f14133d1b900a762e37d8f4c3831fdc6aac7c5e17e",
    "log.int_delayed": "782f182905b268a575cdf0033436f00fc969d3e64cfafee3b08afd715322d611",
    "log.int_queued": "340c3867a607d54f4b82f5a79ccfb0ccf90f4168902976478f3494978a5f87fa",
    "completed": "4dc8ce6bbf1e3d004f4aa3f74cc7407957477de18338cfe12617171e835c57ce",
    "lane_entry_counts": "e323bd3c71432b6b63cec34906e6409f37188ad0900e9a263ec318c47011b6f0",
    "discharge_events": "185881d8c589d4c3cb70459b08bc2224f890f1071621393c7ed2576db2925563",
    "observe_600": "1978fa3ff049691f72d8e6e6ce52ab4573fe0ca5c2ceea49110d7ce020d73734",
    "observe_1200": "a81466ef047b2fa48010dd91ab379f77949314137e0580caedb4b8f74a9024bb",
    "observe_1800": "e613565b7a682ab25d42991e085aedcaa5c817c2e3b3f78559f3ff3fcd8882f2",
    "active": 1649,
}

GOLDEN_EDGE_WORLDS = {
    "all_slow-1": {
        "log": "8665f30f780f5e419607175ad306908e8dac402724682363330aaf4757dccc9c",
        "completed": "7e563a7ce93b2dbfef8dc8fbd9bec7266328bf574004bac70efc8206ef0529e5",
        "discharge_events": "4f6178606d31367ae3dceef47963ad9f4e686871aa2589a3fde5200fc098ef62",
        "observe": "27416278cad31febf909298b924e23eb19907127791b2b6059e04a2ed4351c95",
    },
    "all_slow-3": {
        "log": "d827c28b38298d073a64bbf0567e24dbf87f38fa2a00b4eee6fcc63008c0a20a",
        "completed": "971bf39de8c45d05f2e89004946ef904b71e1662e96407f6a1486dc841ed07eb",
        "discharge_events": "190515885e54c8415bb3470dde9eb3db13df0515447f6fe9e168cbb105124e4f",
        "observe": "a142129d8a237a043ab8e7f02bc63bf10beb8a7e66ecd71598288d2b9d496355",
    },
    "tram_slow-1": {
        "log": "4f677e927a383f7944a34f8b191e09dc2778170f935e953bcbfbd846684c240b",
        "completed": "6f51918f97e006cfea42e15a759deae62839cbe5709f09218f26c95154c3bda0",
        "discharge_events": "4f6178606d31367ae3dceef47963ad9f4e686871aa2589a3fde5200fc098ef62",
        "observe": "27416278cad31febf909298b924e23eb19907127791b2b6059e04a2ed4351c95",
    },
    "tram_slow-3": {
        "log": "05e1a0cbbef0611129b09d526a236316575abcb49a8ca6d84dc97b936478ec90",
        "completed": "9282c4d1e9c983bbd83edc0ee7bffcb254764b16e236e4d59269c4954e646654",
        "discharge_events": "190515885e54c8415bb3470dde9eb3db13df0515447f6fe9e168cbb105124e4f",
        "observe": "a142129d8a237a043ab8e7f02bc63bf10beb8a7e66ecd71598288d2b9d496355",
    },
    "dwell_1s-1": {
        "log": "ca472b6be10c1eecac1997f29f521faac23417ee448af38e041869b84d024267",
        "completed": "1be0588705e475c9ce79b82c7b8f254c182a263d6bca8883ea316aec186945a5",
        "discharge_events": "17bcd0278d7f10e22207c5ed052962bbd937317efd86f0bb75332f5e62b34e48",
        "observe": "21b61ce20c54c41d9c91dd331d03efb25409654150b1b9193777086ba9bc52be",
    },
    "dwell_1s-3": {
        "log": "4381538ed46e36785c05ffc39987849373b9cd14eba2dfd291fd3fb139c382a0",
        "completed": "ac6095dfb022db9ca7d77f34b9f2278d8ea0b090002b457fe54eca226c0b0c77",
        "discharge_events": "946dc5647c40767b1cb25992d2a072df99971280f3e3140176b9c1ab135c1812",
        "observe": "83c0680403852f240dce3d98f430421117b99d4c76d2f01da9ef664cc915d397",
    },
    "short_links-1": {
        "log": "743047cdfe311ef426890e55ab292eea629df1cf089f91d47daa183338d94d29",
        "completed": "e14207999d07471590dd6a45c0d736cade9d04a06e74f00de86651fe3f4a32fe",
        "discharge_events": "ee7aeacac6c76a0c04f2a011a8d71bb9f221451b3d6a8298063911a2e03b419e",
        "observe": "38c4420e1bbe21c34937eaf3ac48f2fd44998fd99296c09db33616e99fe53b68",
    },
    "short_links-3": {
        "log": "f523d597d69862f985e0b790d1999da0a385566622655c8951bae403b3f2bfc4",
        "completed": "5e0117b31a77059603710a1f752b3997957ed9e4cd2ff575b93c351efd68f31b",
        "discharge_events": "74f20ab01f8a45fe1816751d30d077bc9e31ed2ae8d177117cd1b50b44d5727b",
        "observe": "a57877a950a269f332f03d595e775c496d4262da3a2b15d8f9db3c4e3452da89",
    },
    "odd_speeds-1": {
        "log": "3572f832b6a6e1d5e2450e222711d51365b8d469411a9897ffeb8854acfbfb5e",
        "completed": "6d56011e29a5ce4b010c2d55e36d64df8bf5398b0838ab8df74f621da985b39b",
        "discharge_events": "24008d317580e7512880780c450ba8fb5464160a6ffb2a5782a6b4921d362c14",
        "observe": "9049c10c58c87f3a084415f95b0f534a10cb9383890733e3a04548bd802794c1",
    },
    "odd_speeds-3": {
        "log": "8c510bc5ff6770e4bb237ca1c531301df196ae3524fe817d275402bf8408e844",
        "completed": "e3277ffd966efa57c56a66ff54ef82b077d1e91e24d9d61713d40934ca747a68",
        "discharge_events": "837fcb691d455254df64178f756d4a0de497b98070d47729eab949eeda7917b0",
        "observe": "83a778a641fa247de3121215e7d434633ad1c97002a21e031a8864791097daf3",
    },
    "no_riders-1": {
        "log": "82b4a187f9d02dd34caa98300e7dedb53a793c7ce07909e42c140eebfa0516a6",
        "completed": "02d7d76da5dede9d462874d849a3013416b4cd78f05d06f48dad84c296d4ca67",
        "discharge_events": "6745ca1779ad0c989299b2ab39febb4bbe6d9eaaa8db5c635839de5c79215345",
        "observe": "7a2cec06274884fd0f091384fe0818d3a4bc17f3115aa490ae53722d00cd1635",
    },
    "no_riders-3": {
        "log": "84576ecfc97308ba73e984ec25015ae4231c5648fbc7f279a31c8773ee6f1438",
        "completed": "636491266af49bbd24587fb0ab3fe2d5f9942468999602f9314b8dbe2b849c69",
        "discharge_events": "5b95333cb0f02f2b82f95b2afb1074725082130781fcdfafe6bdccffdfff27a3",
        "observe": "32030b3d3b3c1c3286bf4a819a5c904b02a8a03686f63748266a19c6a2127c23",
    },
    "full_cars-1": {
        "log": "4f4758f9b30de537c7193e182a2360eb6bc290ca9e4fe3c30aebe36b6ee1c7c2",
        "completed": "499c479a6c90014d0cebd2917bf02aeec72b1fabacc10064d353d0a914807be0",
        "discharge_events": "d88f7cfb09a9a23d720d7edd87a740e15db0025f91747e9f5130dd9a122ceaf7",
        "observe": "8842e1f5cd70f4ab8973a425e79699bbe9e960484da1e220ce7e37356afa7d69",
    },
    "full_cars-3": {
        "log": "97e43c100b1791cae95b77378cbd1a4cf5cfa8d83bfba4d24378ec25a5ebc4ef",
        "completed": "2e2d7c8ffdeb4885e5f08fff8eeb521fa634127a48becd0d97373cf16ffa02fc",
        "discharge_events": "97db7d852b3c8b8bd0ffb763377036370e5d0e4a2780442afc1f5cb0a933acaa",
        "observe": "26ed92ee622d6db89d5e8cdf55039fe9c330308a0796f947ba2a3bed0ea099dd",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cell_digests(scenario: int, controller: str, seed: int, out_dir) -> dict:
    run_experiment(scenario, controller, seed, horizon_s=HORIZON_S,
                   checkpoint=CHECKPOINTS.get(controller), out_dir=out_dir)
    stem = Path(out_dir) / f"{scenario}_{controller}_seed{seed}"
    summary = (Path(out_dir) / "summary.csv").read_bytes().splitlines()
    assert len(summary) == 2
    return {"metrics": _sha(Path(f"{stem}_metrics.csv").read_bytes()),
            "heatmap": _sha(Path(f"{stem}_heatmap.csv").read_bytes()),
            "summary": _sha(summary[1])}


def rollout_digests(use_hypergraph: bool) -> dict:
    cfg = corridor_train_config(use_hypergraph=use_hypergraph,
                                horizon_s=ROLLOUT_S)
    state = make_train_state(cfg, 1, seed=0)
    env = CorridorEnv(1, seed=world_seed(0, 0), window_depth=cfg.window_depth,
                      window_cadence_s=cfg.window_cadence_s)
    batch = collect_rollout(env, state, ROLLOUT_S)
    if use_hypergraph:
        # each row's window, materialized from the table as (t*n, d)
        windows = batch.critic_input[:, None] + np.arange(cfg.window_depth)
        batch.critic_input = batch.snapshots[windows].reshape(
            len(batch), -1, batch.snapshots.shape[-1])
    out = {}
    for name in BATCH_FIELDS:
        arr = np.ascontiguousarray(getattr(batch, name))
        out[name] = _sha(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())
    return out


def _array_sha(arr) -> str:
    arr = np.ascontiguousarray(arr)
    return _sha(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())


def free_world_digests() -> dict:
    """Digests of an uncontrolled world; every value is read back as plain
    ints, strings or float64 arrays, so the digests do not depend on how
    the simulator stores its state."""
    world = load_scenario(FREE_WORLD["scenario"], FREE_WORLD["seed"])
    records, obs = [], {}
    for _ in range(FREE_WORLD["seconds"]):
        t, spawned, discharged = world.t, world.spawned_total, len(world.discharge_events)
        world.step()
        rec = {"t": t, "spawned": world.spawned_total - spawned,
               "discharged": len(world.discharge_events) - discharged,
               "delayed": world.log.net_delayed[-1]}
        records.append(tuple((key, int(value)) for key, value in rec.items()))
        if world.t in FREE_WORLD["observe_at"]:
            obs[f"observe_{world.t}"] = _array_sha(
                np.asarray(observe(world), dtype=np.float64))
    log = world.log
    out = {"records": _sha(repr(records).encode())}
    for name in LOG_FIELDS:
        out[f"log.{name}"] = _array_sha(np.asarray(getattr(log, name), dtype=np.int64))
    trips = [(c.mode, int(c.waiting_s), int(c.spawn_t), int(c.exit_t))
             for c in log.completed]
    entries = sorted((key, int(count)) for key, count in world.lane_entry_counts.items())
    events = [(int(t), int(i), str(stage)) for t, i, stage in world.discharge_events]
    out["completed"] = _sha(repr(trips).encode())
    out["lane_entry_counts"] = _sha(repr(entries).encode())
    out["discharge_events"] = _sha(repr(events).encode())
    out.update(obs)
    out["active"] = len(world.active)
    return out


def edge_world_digests(name: str, scenario: int) -> dict:
    """Digests of a randomly controlled world under an edge config, read
    back as plain values like the free-running world's."""
    cfg = replace(resolve_config(scenario), **EDGE_CONFIGS[name])
    world = load_scenario(cfg, EDGE_SEED)
    rng = np.random.default_rng(EDGE_SEED)
    seen = hashlib.sha256()

    def decide(world, due):
        obs = np.asarray(observe(world), dtype=np.float64)
        actions = []
        for i in due:
            seen.update(f"{world.t}:{i}:".encode() + obs[i].tobytes())
            actions.append(random_policy(action_mask(world.controllers[i].phase), rng))
        return actions

    drive(world, HORIZON_S, decide)
    log = world.log
    table = np.column_stack([np.asarray(getattr(log, f), dtype=np.int64) for f in LOG_FIELDS])
    trips = [(c.mode, int(c.waiting_s), int(c.spawn_t), int(c.exit_t))
             for c in log.completed]
    events = [(int(t), int(i), str(stage)) for t, i, stage in world.discharge_events]
    return {"log": _array_sha(table), "completed": _sha(repr(trips).encode()),
            "discharge_events": _sha(repr(events).encode()),
            "observe": seen.hexdigest()}


def _cell_id(cell) -> str:
    return "{}-{}-{}".format(*cell)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_cell_outputs_match_golden(cell, tmp_path):
    assert cell_digests(*cell, tmp_path) == GOLDEN_CELLS[_cell_id(cell)]


@pytest.mark.parametrize("use_hypergraph", (True, False), ids=("hg_on", "hg_off"))
def test_rollout_arrays_match_golden(use_hypergraph):
    key = "hg_on" if use_hypergraph else "hg_off"
    assert rollout_digests(use_hypergraph) == GOLDEN_ROLLOUT[key]


def test_free_running_world_matches_golden():
    assert free_world_digests() == GOLDEN_FREE_WORLD


@pytest.mark.parametrize("name,scenario", EDGE_WORLDS, ids=lambda x: str(x))
def test_edge_world_matches_golden(name, scenario):
    assert edge_world_digests(name, scenario) == GOLDEN_EDGE_WORLDS[f"{name}-{scenario}"]


if __name__ == "__main__":
    import tempfile

    cells = {}
    for cell in CELLS:
        with tempfile.TemporaryDirectory() as tmp:
            cells[_cell_id(cell)] = cell_digests(*cell, tmp)
    rollouts = {"hg_on": rollout_digests(True),
                "hg_off": rollout_digests(False)}
    for name, digests in (("GOLDEN_CELLS", cells), ("GOLDEN_ROLLOUT", rollouts)):
        print(f"{name} = {{")
        for key, files in digests.items():
            print(f'    "{key}": {{')
            for part, digest in files.items():
                print(f'        "{part}": "{digest}",')
            print("    },")
        print("}\n")
    print("GOLDEN_FREE_WORLD = {")
    for part, digest in free_world_digests().items():
        print(f'    "{part}": {digest!r},')
    print("}\n")
    print("GOLDEN_EDGE_WORLDS = {")
    for name, scenario in EDGE_WORLDS:
        print(f'    "{name}-{scenario}": {{')
        for part, digest in edge_world_digests(name, scenario).items():
            print(f'        "{part}": "{digest}",')
        print("    },")
    print("}")
