import random
from fractions import Fraction

import pytest

from surfsat import (
    ClassRecord,
    ECPoint,
    InputError,
    NSLattice,
    PreconditionError,
    SymmetricMatrix,
    WeierstrassCurve,
    add,
    adjunction_genus,
    blowup,
    configuration_from_classes,
    hironaka_build,
    projective_plane,
)

from surfsat import elliptic, nslattice
from surfsat.nslattice import cubic_blowup

from support import oracle_hironaka_surface, random_hyperbolic_gram


def blown_up_plane(n, cubic_mult=1):
    """Plane blown up n times along a tracked cubic."""
    lat = projective_plane()
    cubic = ClassRecord("C", (3,), genus=1)
    excs = []
    for i in range(n):
        result = blowup(lat, [(cubic, cubic_mult)] + [(e, 0) for e in excs])
        lat = result.lattice
        cubic = result.classes[0]
        excs = list(result.classes[1:]) + [result.exceptional]
    return lat, cubic, excs


class TestProjectivePlane:
    def test_shape(self):
        lat = projective_plane()
        assert lat.gram.rows == ((Fraction(1),),)
        assert lat.canonical == (-3,)
        assert lat.gram.inertia() == (1, 0, 0)

    def test_line_has_genus_zero(self):
        lat = projective_plane()
        assert adjunction_genus(lat, (1,)) == 0

    def test_cubic_has_genus_one(self):
        lat = projective_plane()
        assert adjunction_genus(lat, (3,)) == 1


class TestBlowup:
    def test_nine_points_on_cubic_gives_zero_square(self):
        lat, cubic, _ = blown_up_plane(9)
        assert cubic.vector == (3,) + (-1,) * 9
        assert lat.self_intersection(cubic) == 0

    def test_ten_points_gives_minus_one(self):
        lat, cubic, _ = blown_up_plane(10)
        assert lat.self_intersection(cubic) == 9 - 10

    def test_center_off_the_curve(self):
        lat = projective_plane()
        conic = ClassRecord("Q", (2,), genus=0)
        result = blowup(lat, [(conic, 0)])
        assert result.lattice.self_intersection(result.classes[0]) == 4

    def test_negative_multiplicity_rejected(self):
        lat = projective_plane()
        with pytest.raises(PreconditionError):
            blowup(lat, [(ClassRecord("L", (1,)), -1)])

    def test_canonical_class_shifts(self):
        lat = projective_plane()
        result = blowup(lat, [])
        assert result.lattice.canonical == (-3, 1)
        assert result.exceptional.vector == (0, 1)
        assert result.lattice.self_intersection(result.exceptional) == -1

    def test_pairing_correction(self):
        # (C - mE).(C' - m'E) = C.C' - m m'
        rng = random.Random(37)
        for _ in range(60):
            lat, _, _ = blown_up_plane(rng.randint(0, 3))
            rank = lat.rank
            c1 = ClassRecord("a", tuple(rng.randint(-3, 3) for _ in range(rank)))
            c2 = ClassRecord("b", tuple(rng.randint(-3, 3) for _ in range(rank)))
            m1, m2 = rng.randint(0, 3), rng.randint(0, 3)
            before = lat.pair(c1, c2)
            result = blowup(lat, [(c1, m1), (c2, m2)])
            after = result.lattice.pair(result.classes[0], result.classes[1])
            assert after == before - m1 * m2

    def test_hodge_index_invariant_up_to_twelve_blowups(self):
        rng = random.Random(41)
        for _ in range(20):
            lat = projective_plane()
            for _ in range(rng.randint(1, 12)):
                lat = blowup(lat, []).lattice
            rank = lat.rank
            assert lat.gram.inertia() == (1, rank - 1, 0)


class TestBlowupWithoutRecheck:
    """A blowup appends an orthogonal (-1)-class, so its lattice skips the
    integrality and signature checks; a lattice built directly keeps them."""

    @staticmethod
    def count_lattice_inertia(monkeypatch):
        """Record every inertia call on a Gram of the form diag(1, -1, ...)."""
        calls = []
        original = SymmetricMatrix.inertia

        def counting(self):
            if self == SymmetricMatrix.diagonal([1] + [-1] * (self.n - 1)):
                calls.append(self.n)
            return original(self)

        monkeypatch.setattr(SymmetricMatrix, "inertia", counting)
        return calls

    def test_tower_checks_the_plane_only(self, monkeypatch):
        calls = self.count_lattice_inertia(monkeypatch)
        lat, _, _ = blown_up_plane(12)
        assert calls == [1]
        assert lat.gram == SymmetricMatrix.diagonal([1] + [-1] * 12)
        assert lat.canonical == (-3,) + (1,) * 12

    def test_hironaka_build_writes_the_closed_form(self, monkeypatch):
        # the surface is I_{1,n} by construction: no lattice is checked and
        # no blowup tower or pairwise dual graph is built
        curve = WeierstrassCurve(a3=1, a4=-1)  # y^2 + y = x^3 - x
        p = ECPoint.affine(0, 0)
        points, running = [], p
        for _ in range(10):
            points.append((running, 1))
            running = add(curve, running, p)
        calls = self.count_lattice_inertia(monkeypatch)

        def forbidden(*args, **kwargs):
            raise AssertionError("hironaka_build left the closed form")

        # patched where they are defined and where elliptic would import them
        for module in (nslattice, elliptic):
            for name in ("blowup", "configuration_from_classes", "projective_plane"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        report = hironaka_build(curve, points)
        assert calls == []
        assert report.lattice.gram == SymmetricMatrix.diagonal([1] + [-1] * 10)

    def test_direct_lattice_is_still_checked(self, monkeypatch):
        calls = self.count_lattice_inertia(monkeypatch)
        with pytest.raises(InputError, match="signature"):
            NSLattice(("L", "E"), SymmetricMatrix.diagonal([1, 1]), (-3, 1))
        with pytest.raises(InputError, match="integral"):
            NSLattice(
                ("L", "E"),
                SymmetricMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), -1]]),
                (-3, 1),
            )
        NSLattice(("L", "E"), SymmetricMatrix.diagonal([1, -1]), (-3, 1))
        assert calls == [2]


class TestCubicBlowup:
    """The closed form of the plane blown up at n points of a cubic against
    the blowup tower it replaced."""

    def test_matches_the_tower(self):
        for n in range(1, 41):
            lat, cubic, excs, config = cubic_blowup(n)
            o_lat, o_cubic, o_excs, o_config, o_square = oracle_hironaka_surface(n)
            assert lat.basis_names == o_lat.basis_names
            assert lat.gram == o_lat.gram
            assert lat.canonical == o_lat.canonical
            assert cubic == o_cubic
            assert excs == o_excs
            assert config.nodes == o_config.nodes
            assert config.gram == o_config.gram
            assert lat.self_intersection(cubic) == o_square == 9 - n
            assert adjunction_genus(lat, cubic) == 1
            assert lat.gram.inertia() == (1, n, 0)


class TestIntegerPairing:
    """The sparse integer pairing must equal the dense Fraction pairing
    u^T G v on the Gram matrix, for records and plain vectors alike."""

    def check(self, lat, classes, rng):
        classes = list(classes)
        for _ in range(4):
            classes.append(tuple(rng.randint(-4, 4) for _ in range(lat.rank)))
        pairs = [
            (c, c.vector if isinstance(c, ClassRecord) else c) for c in classes
        ]
        for c1, u in pairs:
            uu = lat.gram.pair(u, u)
            assert lat.self_intersection(c1) == uu
            expected_genus = uu / 2 + lat.gram.pair(u, lat.canonical) / 2 + 1
            assert adjunction_genus(lat, c1) == expected_genus
            for c2, v in pairs:
                value = lat.pair(c1, c2)
                assert isinstance(value, Fraction)
                assert value == lat.gram.pair(u, v)

    def test_random_blowup_towers(self):
        rng = random.Random(20245)
        for _ in range(20):
            lat = projective_plane()
            tracked = [ClassRecord("L", (1,), genus=0)]
            for _ in range(rng.randint(1, 12)):
                passing = [(record, rng.randint(0, 2)) for record in tracked]
                result = blowup(lat, passing)
                lat = result.lattice
                tracked = list(result.classes)
                if rng.random() < 0.5:
                    tracked.append(result.exceptional)
            self.check(lat, tracked + [lat.canonical], rng)

    def test_random_non_diagonal_lattices(self):
        rng = random.Random(20246)
        off_diagonal = 0
        for _ in range(40):
            rank = rng.randint(2, 8)
            gram = random_hyperbolic_gram(rng, rank)
            canonical = tuple(rng.randint(-3, 3) for _ in range(rank))
            lat = NSLattice(tuple(f"B{i}" for i in range(rank)), gram, canonical)
            off_diagonal += any(
                gram.entry(i, j) for i in range(rank) for j in range(rank) if i != j
            )
            records = [
                ClassRecord(f"R{k}", tuple(rng.randint(-3, 3) for _ in range(rank)))
                for k in range(3)
            ]
            self.check(lat, records, rng)
        assert off_diagonal >= 35


class TestAdjunction:
    def test_exceptional_curve_has_genus_zero(self):
        result = blowup(projective_plane(), [])
        assert adjunction_genus(result.lattice, result.exceptional) == 0

    def test_cubic_transform_keeps_genus_one(self):
        lat, cubic, _ = blown_up_plane(9)
        assert adjunction_genus(lat, cubic) == 1

    def test_line_through_one_point(self):
        lat = projective_plane()
        line = ClassRecord("L", (1,), genus=0)
        result = blowup(lat, [(line, 1)])
        assert adjunction_genus(result.lattice, result.classes[0]) == 0

    def test_invariant_under_orthogonal_null_class(self):
        # adding a square-zero class orthogonal to both c and the canonical
        # class leaves the genus unchanged
        lat, fibre, _ = blown_up_plane(9)
        f = fibre.vector
        assert lat.pair(f, f) == 0
        assert lat.gram.pair(f, lat.canonical) == 0
        for c in (lat.canonical, f, tuple(2 * x for x in f)):
            shifted = tuple(a + b for a, b in zip(c, f))
            assert adjunction_genus(lat, shifted) == adjunction_genus(lat, c)

    def test_adjunction_parity(self):
        # c.(c + K) is always even on a blown-up plane
        rng = random.Random(43)
        for _ in range(80):
            lat, _, _ = blown_up_plane(rng.randint(0, 5))
            c = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
            val = lat.pair(c, c) + lat.gram.pair(c, lat.canonical)
            assert val % 2 == 0
            assert adjunction_genus(lat, c).denominator == 1


class TestConfigurationFromClasses:
    def test_single_cubic_transform(self):
        lat, cubic, _ = blown_up_plane(9)
        config = configuration_from_classes(lat, [cubic])
        assert config.gram.rows == ((Fraction(0),),)
        assert config.nodes[0].genus == 1
        assert config.nodes[0].proper

    def test_line_and_exceptional(self):
        lat = projective_plane()
        line = ClassRecord("L1", (1,), genus=0)
        result = blowup(lat, [(line, 1)])
        config = configuration_from_classes(
            result.lattice, [result.classes[0], result.exceptional]
        )
        assert config.gram.rows == (
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(-1)),
        )

    def test_two_exceptionals(self):
        result1 = blowup(projective_plane(), [])
        result2 = blowup(result1.lattice, [(result1.exceptional, 0)])
        config = configuration_from_classes(
            result2.lattice, [result2.classes[0], result2.exceptional]
        )
        assert config.gram.rows == (
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(-1)),
        )

    def test_negative_pairing_rejected_with_names(self):
        result = blowup(projective_plane(), [])
        lat = result.lattice
        e = result.exceptional
        other = ClassRecord("E1again", e.vector)
        with pytest.raises(InputError, match="E1.*E1again|E1again.*E1"):
            configuration_from_classes(lat, [e, other])


class TestLatticeValidation:
    def test_wrong_signature_rejected(self):
        from surfsat import NSLattice, SymmetricMatrix

        with pytest.raises(InputError):
            NSLattice(("A",), SymmetricMatrix([[-1]]), (0,))

    def test_fractional_pairing_rejected(self):
        from surfsat import NSLattice, SymmetricMatrix

        with pytest.raises(InputError):
            NSLattice(("A",), SymmetricMatrix([[Fraction(1, 2)]]), (0,))

    def test_class_coordinates_are_exact_integers(self):
        record = ClassRecord("C", (Fraction(6, 2), "-1", 0))
        assert record.vector == (3, -1, 0)
        assert all(type(x) is int for x in record.vector)
        with pytest.raises(InputError, match="non-integral coordinate 1/2"):
            ClassRecord("C", (Fraction(1, 2), 1))
        with pytest.raises(InputError, match="non-integral coordinate 3/2"):
            ClassRecord("C", (1, "3/2"))
        with pytest.raises(InputError, match="float 1.7 is not exact"):
            ClassRecord("C", (1, 1.7))

    def test_canonical_class_is_exact_integers(self):
        from surfsat import SymmetricMatrix

        gram = SymmetricMatrix([[1]])
        lat = NSLattice(("L",), gram, (Fraction(-6, 2),))
        assert lat.canonical == (-3,)
        assert type(lat.canonical[0]) is int
        assert NSLattice(("L",), gram, ("-3",)).canonical == (-3,)
        with pytest.raises(InputError, match="non-integral coordinate -5/2"):
            NSLattice(("L",), gram, (Fraction(-5, 2),))
        with pytest.raises(InputError, match="float -2.7 is not exact"):
            NSLattice(("L",), gram, (-2.7,))
