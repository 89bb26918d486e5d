"""sha256 of the per-path samples and increment draws, recorded before the
stable sampler, the row norm and the sphere-shell weight were rewritten in
place; any change to the arithmetic of a plain walk shows up here."""

import hashlib

import numpy as np
import pytest

from bigmeasure.measures import AnnulusSeries, PowerWeight, Seq, SphereSeries
from bigmeasure.simulate import (
    Brownian,
    IsotropicStable,
    gauge_checkpoint_samples,
    positive_stable_sample,
    sample_increment,
)


def _sha(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


SPHERE_TAIL = SphereSeries(Seq.table([1.0, 1.7, 2.6, 3.2], tail_exponent=1.2), r=1.0)
SPHERE_TRUNCATED = SphereSeries(Seq.table([0.8, 1.6, 2.9, 4.0]), r=2.0)


def _walk_cases():
    cases = {}
    for a in (1.2, 1.5):
        for r in (0.75, 1.0, 2.0):
            cases[f"sphere-p1.5-r{r}-a{a}"] = (SphereSeries.parametric(1.5, r), IsotropicStable(a, 3), 0.0, 0.05)
        cases[f"sphere-tail-a{a}"] = (SPHERE_TAIL, IsotropicStable(a, 3), [0.4, -0.9, 0.2], 0.05)
        cases[f"sphere-truncated-a{a}"] = (SPHERE_TRUNCATED, IsotropicStable(a, 3), 0.0, 0.03)
    cases["power-a1.5"] = (PowerWeight(-4.0), IsotropicStable(1.5, 3), [0.5, 0.0, -0.5], None)
    cases["annulus-a1.2"] = (AnnulusSeries.parametric(1.0, 3.0, 0.5), IsotropicStable(1.2, 3), 0.0, None)
    cases["sphere-d2-a1.2"] = (SphereSeries.parametric(1.5, 1.0), IsotropicStable(1.2, 2), 0.0, 0.05)
    cases["sphere-d5-a1.5"] = (SphereSeries.parametric(1.5, 1.0), IsotropicStable(1.5, 5), 0.0, 0.05)
    for d in (1, 2, 3, 5, 8):
        off = [0.3 * (-1) ** k + 0.1 * k for k in range(d)]
        cases[f"brownian-d{d}-origin"] = (PowerWeight(-2.0), Brownian(d), 0.0, None)
        cases[f"brownian-d{d}-off"] = (PowerWeight(-2.0), Brownian(d), off, None)
    cases["brownian-d3-annulus"] = (AnnulusSeries.parametric(1.0, 3.0, 0.0), Brownian(3), [0.9, 0.1, 0.0], None)
    return cases


WALK_CASES = _walk_cases()

FROZEN_WALKS = [
    ("sphere-p1.5-r0.75-a1.2", "6f77f5668e127407b41205a09e1df282379714b3d0f1f2a7fcd0ce5401a58dd2"),
    ("sphere-p1.5-r1.0-a1.2", "b99af86ec68e4890fe95d7b0253058e0b79c24d5d2e04765c8d26deb472036f0"),
    ("sphere-p1.5-r2.0-a1.2", "13d382d793bcae2cce4cc09e63e28d3f198166b81fff1733bddc7bcf2a549187"),
    ("sphere-tail-a1.2", "91786a2ef2364f54d5723ece59d0dcfd6b4a37f1fdf53e35f6c85a8734a61697"),
    ("sphere-truncated-a1.2", "1493b52324cae6f3093dca2e4482a502f94b51a083b4e5b28d0b5f23a7e74a4f"),
    ("sphere-p1.5-r0.75-a1.5", "9a09adff195997dd76e22243fe00baf78dedb77588e21b619f9fe449556065a8"),
    ("sphere-p1.5-r1.0-a1.5", "5dd3e5220850ccfdd4b848a10bc78195af8d740e0bba47b736647f099b4e9ad6"),
    ("sphere-p1.5-r2.0-a1.5", "f0cc15e273c92725fd998aebb2aab3cdd67f64b2dba15599e7f0f98755e81077"),
    ("sphere-tail-a1.5", "c84248ef60b5ba98f99bed28ab1847a5ce3f2a8c3ea5848bd1f1c3bab88d4b46"),
    ("sphere-truncated-a1.5", "a5ffa91299c324374fc46ae4fa93f86a201d9040ef8baece4c3c9190c7afbfc2"),
    ("power-a1.5", "9fa1fe284828bb32bdc6bd88e94bc1f17792a46b72b65015b8c6ef32cd219825"),
    ("annulus-a1.2", "649062a52e8cfebbb4ad2647837b25280a81a1239a463d7fc0742b16d82dbe1b"),
    ("sphere-d2-a1.2", "88f434e45399a562faabd3f8e493f40a128d37d03180914306e2383e2142775b"),
    ("sphere-d5-a1.5", "456da42ed4f19ee694ddaef558860e644a89556d5fe2857fd48c789176f8e4a4"),
    ("brownian-d1-origin", "864ab821b8f63e052d4e2f062c9c976006271b63a6c634a863e488062d05ef49"),
    ("brownian-d1-off", "63e085a31ecfd815f0919dc93b2f616e8d932fdb02d82f325d633420fc9d6fd5"),
    ("brownian-d2-origin", "d73dd9004480084c93d9d0569db89602097749f0939f689a0ff9e2385ae2042f"),
    ("brownian-d2-off", "eeb35097b6446c50af2e8439de9b54389a6af7d9e7b5dbe743ded95ef580281b"),
    ("brownian-d3-origin", "7dc042c8bd07928bd87f4ec5181f1bc55a8dd6f815834f081b746c86f7d117a4"),
    ("brownian-d3-off", "c692e13a62055b1161cb7054fae3340c83bc526f9ed45983d6a103094af8b1a6"),
    ("brownian-d5-origin", "5f0d831d9bc99dd11826d7fee8f62fca6da4e0cb8a6d41f58d2c9ce2731f4fd2"),
    ("brownian-d5-off", "5c752fb54b9dc45c8ad2639448d54ae26d0e514132f4c02de62789f20900ffe4"),
    ("brownian-d8-origin", "2c09ef8245c6c8a972bc5b8f443900e4a94c587fb119841567e4f63f2ad29f20"),
    ("brownian-d8-off", "a6f08f9f0a800cad2b992464051afe2dc3e14bf9b104459cfcde3cab29841144"),
    ("brownian-d3-annulus", "f925147710a725c5e253b9fd62f6aef647b3b9269822365a56a7383e144830f3"),
]


@pytest.mark.parametrize("name,digest", FROZEN_WALKS)
def test_plain_walk_bytes_are_frozen(name, digest):
    mu, process, x, eps = WALK_CASES[name]
    samples, realized = gauge_checkpoint_samples(
        x, mu, process, [2.0, 7.0, 20.0], 6, 20261019, 0.01, smoothing_eps=eps
    )
    assert _sha(samples, realized) == digest


def _draw_cases():
    cases = {}
    for a in (0.5, 1.0, 4.0 / 3.0, 1.2, 1.5, 1.9, 2.0):
        for d in (1, 3):
            for n in (None, 1, 1000):
                process = IsotropicStable(a, d)
                cases[f"stable-a{a:.4g}-d{d}-n{n}"] = (
                    lambda p=process, n=n: (sample_increment(p, 0.01, np.random.default_rng(7), n),)
                )
    for d in (1, 3, 8):
        def brownian(d=d):
            rng = np.random.default_rng(8)
            return sample_increment(Brownian(d), 0.02, rng, 500), sample_increment(Brownian(d), 0.02, rng)

        cases[f"brownian-d{d}"] = brownian
    for beta in (0.25, 0.5, 0.6, 0.75, 0.95):
        def positive(beta=beta):
            rng = np.random.Generator(np.random.Philox(key=np.array([5, 9], dtype=np.uint64)))
            return (positive_stable_sample(beta, 2000, rng),)

        cases[f"positive-b{beta}"] = positive
    return cases


DRAW_CASES = _draw_cases()

FROZEN_DRAWS = [
    ("stable-a0.5-d1-nNone", "a805adbe26f3b75ebfc1827ca9eb28a3865039b2a5dd2428a14adf417e5d8ef4"),
    ("stable-a0.5-d1-n1", "a805adbe26f3b75ebfc1827ca9eb28a3865039b2a5dd2428a14adf417e5d8ef4"),
    ("stable-a0.5-d1-n1000", "e6e2734fc2ae0e5f72a4ca382ba1b8e3328c1baa8e2236b7e8113c23100bac80"),
    ("stable-a0.5-d3-nNone", "313dbd8b34a8128be386039f51f44a0f2eed2b6a2cfe9f4138dd539a5b9d7c95"),
    ("stable-a0.5-d3-n1", "313dbd8b34a8128be386039f51f44a0f2eed2b6a2cfe9f4138dd539a5b9d7c95"),
    ("stable-a0.5-d3-n1000", "5ed30ecf9939ff85dca0c1a56d9989adf9557c569d9381b09e8ea87d6b2f763c"),
    ("stable-a1-d1-nNone", "982b81db8b9d6a9ceef62d1145d884267d31aa50814edc39ee17bd44db608bd4"),
    ("stable-a1-d1-n1", "982b81db8b9d6a9ceef62d1145d884267d31aa50814edc39ee17bd44db608bd4"),
    ("stable-a1-d1-n1000", "33963373d8c3d84d13a61e278b2a472c3e3fb8d60d72a9b9bcc028061b5795c0"),
    ("stable-a1-d3-nNone", "230233f44243092622e2f38ab813699f4cbbcb672bb3ee8dd9312d41d08cbb2c"),
    ("stable-a1-d3-n1", "230233f44243092622e2f38ab813699f4cbbcb672bb3ee8dd9312d41d08cbb2c"),
    ("stable-a1-d3-n1000", "f91032f7f90820ab95aeda7396fae78412eaabec6b727f2c4dfebacffa57b732"),
    ("stable-a1.333-d1-nNone", "c535d0f0fb67e9f1ce346cb1eeed19a3422e85c637ec8cdbd75527e967c0de2f"),
    ("stable-a1.333-d1-n1", "c535d0f0fb67e9f1ce346cb1eeed19a3422e85c637ec8cdbd75527e967c0de2f"),
    ("stable-a1.333-d1-n1000", "cfcf6ad140a2886aaccd0ce6fb80f372fabee2db04a9e9c06e88d4b824bd36bb"),
    ("stable-a1.333-d3-nNone", "f24631f7fe04be08a3ea8380695344ff737b0ffd040406beabfe9a2d15256d92"),
    ("stable-a1.333-d3-n1", "f24631f7fe04be08a3ea8380695344ff737b0ffd040406beabfe9a2d15256d92"),
    ("stable-a1.333-d3-n1000", "08094c88a88257f96dc24a2ee19298978a0fb5e3ca5bbf83187182accbdce386"),
    ("stable-a1.2-d1-nNone", "b991295f614d3f2079a0904d3bb05434eab9f65685a5d1a4b2920320527fdbcc"),
    ("stable-a1.2-d1-n1", "b991295f614d3f2079a0904d3bb05434eab9f65685a5d1a4b2920320527fdbcc"),
    ("stable-a1.2-d1-n1000", "95610c8bffb049306890f40af2519e5ef67b79f7c3692ef9fc16f709d4517bf1"),
    ("stable-a1.2-d3-nNone", "deed293425ad4588ca0a0f022cd9f205bdbdb6b125d0418a78f80a6f16ae4808"),
    ("stable-a1.2-d3-n1", "deed293425ad4588ca0a0f022cd9f205bdbdb6b125d0418a78f80a6f16ae4808"),
    ("stable-a1.2-d3-n1000", "f1a421c49ec73c6618d3c6551ca5b9092c3bc7a269723bef81c413c54308905c"),
    ("stable-a1.5-d1-nNone", "158c655a28c046010ec6f4640913b0b3ff78e206f49aa0eb6f6efd13ea832960"),
    ("stable-a1.5-d1-n1", "158c655a28c046010ec6f4640913b0b3ff78e206f49aa0eb6f6efd13ea832960"),
    ("stable-a1.5-d1-n1000", "f35ad90a4688cd75e521d82528ec20a172039aec3245e9e19deeb2081c3da3a0"),
    ("stable-a1.5-d3-nNone", "08401af60ba58e33cf35406fba6dd8b2c3b5c9421f44f7a2368caaac3fcb1d49"),
    ("stable-a1.5-d3-n1", "08401af60ba58e33cf35406fba6dd8b2c3b5c9421f44f7a2368caaac3fcb1d49"),
    ("stable-a1.5-d3-n1000", "7509a0e0c13bdcafebe8836f7d6b08567dba6cd6a1b358d46217b4d6458411e9"),
    ("stable-a1.9-d1-nNone", "c1869a5eaaea0d617b94bd931505985815510f4fde8ce4ff0067f49e725944de"),
    ("stable-a1.9-d1-n1", "c1869a5eaaea0d617b94bd931505985815510f4fde8ce4ff0067f49e725944de"),
    ("stable-a1.9-d1-n1000", "a1f1ad0e3cb4b796c952bc2a29aadb5005d4af96f6a9ce14d4f011337b5c31d0"),
    ("stable-a1.9-d3-nNone", "595461bdf19a509dd1cf0765377bd814cef9f05118d1fe6736c0d05ef2badfb1"),
    ("stable-a1.9-d3-n1", "595461bdf19a509dd1cf0765377bd814cef9f05118d1fe6736c0d05ef2badfb1"),
    ("stable-a1.9-d3-n1000", "dd47015b96980aeb35ab8d4679b4a8d740a62f7195174d3bed211d2c5e59d748"),
    ("stable-a2-d1-nNone", "d60c7220af631045b7fc513297bbd44c4979c073e1c95204f5a87edf558aaa0f"),
    ("stable-a2-d1-n1", "d60c7220af631045b7fc513297bbd44c4979c073e1c95204f5a87edf558aaa0f"),
    ("stable-a2-d1-n1000", "e0806d09ad30a6538b5955f0f0ba29a36a5b3a7f0a0bc5caedb5cb42fa2d6eac"),
    ("stable-a2-d3-nNone", "023aced11d969fa167b560c285edbbb0c9879458812db21c599a8520d6f9e909"),
    ("stable-a2-d3-n1", "023aced11d969fa167b560c285edbbb0c9879458812db21c599a8520d6f9e909"),
    ("stable-a2-d3-n1000", "5c82c48561631b08db5f5c8d7dad20eda3bc0f317b45d91595ac047cbdb47bba"),
    ("brownian-d1", "2d678cf5c780e3ac71f25efc273a4601378dac0a685db49fbc620ab8d7f4b38e"),
    ("brownian-d3", "7022c47e896d41d45b5e8bd8e6541148cfb0219595550a624547a5e63533f81e"),
    ("brownian-d8", "0895bb612141d206da6dc386e5d620375d38e3997afee032ef5715d4a4a6b935"),
    ("positive-b0.25", "186bad7fd61c28b19f107f14adedd352f92a5188f7612e80c397749db67df4a2"),
    ("positive-b0.5", "fe93663f2f7b686c2f90d4b71e0b3eb158f02d90d7e42f4e1a01b91bb727bd62"),
    ("positive-b0.6", "94344f162fe496fa041810da0f2c612967754795f473b7a7ea4319e9b497ee6b"),
    ("positive-b0.75", "4a47060df9a20ec2e64d128a1bb881fc5baf55414bd56fdfab7a353652ec6bb0"),
    ("positive-b0.95", "6e903912dffe9392faf24857bd0258f1679b270fdbb28a9ad69f02031fba7084"),
]


@pytest.mark.parametrize("name,digest", FROZEN_DRAWS)
def test_increment_draws_are_frozen(name, digest):
    assert _sha(*DRAW_CASES[name]()) == digest
