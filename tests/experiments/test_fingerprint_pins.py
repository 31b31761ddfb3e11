"""Pinned fingerprints: stored artifacts stay loadable across versions.

Every artifact is keyed by its node's chained fingerprint, so a refactor
that renames a fingerprint payload key, reorders a config field into
another node or changes a node's upstream map silently orphans every
existing store: the next run rebuilds everything and old caches never
hit again.  The invalidation tests only compare fingerprints *within*
one version; these compare against literal digests, so such a change
fails here instead of in a user's cache.  Only a deliberate change of a
node's inputs (with a schema bump and a note in CHANGES.md) should ever
edit these tables.
"""

from repro.experiments import men_config, stage_fingerprints
from repro.experiments.matrix import (
    MATRIX_ATTACKS,
    MATRIX_DEFENSES,
    MATRIX_RECOMMENDERS,
    MatrixConfig,
    matrix_fingerprints,
)

# The configs of test_stages (TINY) and test_matrix (TINY / full_config).
STAGE_TINY = dict(
    scale=0.002,
    image_size=16,
    classifier_epochs=8,
    recommender_epochs=5,
    amr_pretrain_epochs=2,
    cutoff=20,
    epsilons_255=(8.0,),
)
MATRIX_TINY = dict(
    scale=0.002,
    image_size=16,
    seed=0,
    classifier_epochs=4,
    recommender_epochs=3,
    amr_pretrain_epochs=2,
    cutoff=10,
    epsilons_255=(8.0,),
)

STAGE_DIGESTS = {
    "amr": "1d9e3a8b41c936d2",
    "attack_grid": "f2098670c8de2210",
    "classifier": "d7bb5f2a87b8e151",
    "clean_scores": "8b535a2e6375997e",
    "dataset": "56638a94553c17bb",
    "features": "361fb18cb1d2dd5a",
    "tables": "b03923b00df67b85",
    "vbpr": "dd0d3ddcc6df5ba9",
}

MATRIX_DIGESTS = {
    "amr": "68e37ee1e36b1e4b",
    "attack_grid": "0d63ac9e1ff8c5a7",
    "cell:adv_train/CW/AMR": "b5a4d00b404a6f0d",
    "cell:adv_train/CW/BPRMF": "f46a7489aeea0471",
    "cell:adv_train/CW/VBPR": "7be59bef0eb952b0",
    "cell:adv_train/FGSM/AMR": "abcf732786c5f093",
    "cell:adv_train/FGSM/BPRMF": "38950b8222c5343b",
    "cell:adv_train/FGSM/VBPR": "15ab92b81101c1ae",
    "cell:adv_train/MIM/AMR": "b4575040e2484208",
    "cell:adv_train/MIM/BPRMF": "11a6f6a7cd6f84c4",
    "cell:adv_train/MIM/VBPR": "e6786bcea41d0d84",
    "cell:adv_train/NES/AMR": "695c0aa6d5391867",
    "cell:adv_train/NES/BPRMF": "d3a78a3450996bd7",
    "cell:adv_train/NES/VBPR": "6128fce2b8f28ff5",
    "cell:adv_train/PGD/AMR": "1a5572f700c6221c",
    "cell:adv_train/PGD/BPRMF": "5570593bf92ebeb9",
    "cell:adv_train/PGD/VBPR": "2c8aab95bb019029",
    "cell:adv_train/TRANSFER/AMR": "8aace2db0f7840fc",
    "cell:adv_train/TRANSFER/BPRMF": "134354152363b65b",
    "cell:adv_train/TRANSFER/VBPR": "ec20c5f82c337ddf",
    "cell:detector/CW/AMR": "a1379bb82efcf77e",
    "cell:detector/CW/BPRMF": "011932049bdd3221",
    "cell:detector/CW/VBPR": "b9de3e98d0f855aa",
    "cell:detector/FGSM/AMR": "1873db955567a1e4",
    "cell:detector/FGSM/BPRMF": "95143b7053e5700e",
    "cell:detector/FGSM/VBPR": "f2b0176c269a9f8c",
    "cell:detector/MIM/AMR": "4ce4d703fd27eb5d",
    "cell:detector/MIM/BPRMF": "dc151f1252a844a5",
    "cell:detector/MIM/VBPR": "a54baff6b64bb9e6",
    "cell:detector/NES/AMR": "651f7e72ab988cfe",
    "cell:detector/NES/BPRMF": "a6d13728ef04818c",
    "cell:detector/NES/VBPR": "1553de724308900f",
    "cell:detector/PGD/AMR": "fb46a5563045eefa",
    "cell:detector/PGD/BPRMF": "a81c6324780a5e3e",
    "cell:detector/PGD/VBPR": "bc1e68ef60847771",
    "cell:detector/TRANSFER/AMR": "ab5f73169913bf60",
    "cell:detector/TRANSFER/BPRMF": "dd3e9c751d053691",
    "cell:detector/TRANSFER/VBPR": "0947d4873084b215",
    "cell:distill/CW/AMR": "afe09ceb6a8cf4ed",
    "cell:distill/CW/BPRMF": "8d148f3c230ba8f3",
    "cell:distill/CW/VBPR": "9e5f93f048a3345e",
    "cell:distill/FGSM/AMR": "df83fe644e5025b7",
    "cell:distill/FGSM/BPRMF": "aadb22f8b22f5369",
    "cell:distill/FGSM/VBPR": "832b3908ab897e50",
    "cell:distill/MIM/AMR": "1e23407fa70e8d5e",
    "cell:distill/MIM/BPRMF": "16404bfa6d3b5f0f",
    "cell:distill/MIM/VBPR": "db7455db34a8c992",
    "cell:distill/NES/AMR": "10d16ec54889280d",
    "cell:distill/NES/BPRMF": "d19727ceba6d06ed",
    "cell:distill/NES/VBPR": "8ea56ec007811e01",
    "cell:distill/PGD/AMR": "b4de343528d71c80",
    "cell:distill/PGD/BPRMF": "da1a48e806a6c23f",
    "cell:distill/PGD/VBPR": "48172c0f81d1e1db",
    "cell:distill/TRANSFER/AMR": "4971ed44a732e05a",
    "cell:distill/TRANSFER/BPRMF": "06119d8054ff2306",
    "cell:distill/TRANSFER/VBPR": "cc373fcb36465824",
    "cell:none/CW/AMR": "185b67dfeb4b5be6",
    "cell:none/CW/BPRMF": "983d8fd31a31ad15",
    "cell:none/CW/VBPR": "2da20bb2e94815c5",
    "cell:none/FGSM/AMR": "8897264ec034d9e7",
    "cell:none/FGSM/BPRMF": "c036d21a1903b008",
    "cell:none/FGSM/VBPR": "e3b9d148b00774ee",
    "cell:none/MIM/AMR": "4872ac6de95def23",
    "cell:none/MIM/BPRMF": "9ec47ca935a4aa18",
    "cell:none/MIM/VBPR": "423f0383d84fcf86",
    "cell:none/NES/AMR": "fd74373d9553b62a",
    "cell:none/NES/BPRMF": "d982f93fb28981f3",
    "cell:none/NES/VBPR": "5f2db7abe744ea77",
    "cell:none/PGD/AMR": "53614cfb34abdb7f",
    "cell:none/PGD/BPRMF": "ed6e81601a106b38",
    "cell:none/PGD/VBPR": "c083469dbf347c43",
    "cell:none/TRANSFER/AMR": "059a4c5e2b3ab56a",
    "cell:none/TRANSFER/BPRMF": "ee8a09929d3743ac",
    "cell:none/TRANSFER/VBPR": "f36b806db12a5feb",
    "cell:squeeze/CW/AMR": "2b9afd6a63b6d9b5",
    "cell:squeeze/CW/BPRMF": "b51ebafe6d83dcbe",
    "cell:squeeze/CW/VBPR": "81e0bcf12b55a1c5",
    "cell:squeeze/FGSM/AMR": "d8bc84ccb08f2fbc",
    "cell:squeeze/FGSM/BPRMF": "0e0d55b02f826397",
    "cell:squeeze/FGSM/VBPR": "504cc1794ce241fe",
    "cell:squeeze/MIM/AMR": "020c03dca42c5533",
    "cell:squeeze/MIM/BPRMF": "5e5d61b7eb17c9d4",
    "cell:squeeze/MIM/VBPR": "8831ff80420ca340",
    "cell:squeeze/NES/AMR": "4b1bbcc836d449ed",
    "cell:squeeze/NES/BPRMF": "957e626e2fd640b2",
    "cell:squeeze/NES/VBPR": "5a8527ea203d2711",
    "cell:squeeze/PGD/AMR": "c921d621077bca54",
    "cell:squeeze/PGD/BPRMF": "7da5e89bc875f9fb",
    "cell:squeeze/PGD/VBPR": "110860aa7131bb18",
    "cell:squeeze/TRANSFER/AMR": "7ff7d3dd258c7d39",
    "cell:squeeze/TRANSFER/BPRMF": "24659025a392a58c",
    "cell:squeeze/TRANSFER/VBPR": "62c4afc213db639b",
    "classifier": "f612f9118dc59cf8",
    "clean_scores": "69e8650f7ff8bbfd",
    "dataset": "56638a94553c17bb",
    "defense:adv_train": "8818acafca1f4ea0",
    "defense:detector": "93ba6a6280031ce1",
    "defense:distill": "08a10a25dd6f4754",
    "defense:none": "f5593c6453b45905",
    "defense:squeeze": "f4fe2c15da717601",
    "features": "19f3a4d98b8b3474",
    "recommender:adv_train/AMR": "5a4d2677bf63a3bc",
    "recommender:adv_train/VBPR": "01b6f97e29efd88d",
    "recommender:distill/AMR": "2142513e8708eade",
    "recommender:distill/VBPR": "bc3a95b3419d6309",
    "recommender:shared/BPRMF": "d1f5041285095a27",
    "recommender:squeeze/AMR": "0ee2a4fbf0015676",
    "recommender:squeeze/VBPR": "5f4ceeaf4aee0e7a",
    "surrogate": "d85b68aa3f8a0851",
    "tables": "3ccd8671184de0f6",
    "vbpr": "6a165bcc5a81a1fe",
}


def test_stage_fingerprints_are_pinned():
    assert stage_fingerprints(men_config(**STAGE_TINY)) == STAGE_DIGESTS


def test_matrix_fingerprints_are_pinned():
    config = MatrixConfig(
        base=men_config(**MATRIX_TINY),
        attacks=MATRIX_ATTACKS,
        defenses=MATRIX_DEFENSES,
        recommenders=MATRIX_RECOMMENDERS,
    )
    assert matrix_fingerprints(config) == MATRIX_DIGESTS
