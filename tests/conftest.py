import pytest

from zeta3 import exactdet
from zeta3.complexes import ComplexDescription, Geometric
from zeta3.construct import (
    base_quotient,
    connected_covers,
    find_triangle_presentation,
    first_presentation_with_covers,
    iter_triangle_presentations,
    projective_plane,
)
from zeta3.operators import build_a1, build_a2, build_lb, build_le
from zeta3.zeta import zeta_parts


def pytest_configure(config):
    # every determinant, dense char_rev or a labelled pattern
    # (exactdet.char_rev_labelled: a presented complex's base operator, or a
    # geometric complex's operator over its free symmetry), compares its result with the
    # unreduced dense operator's characteristic polynomial modulo a prime
    # outside its CRT set (exactdet._self_check): for a presented complex, the
    # cover's own incidence-rule operator, or the dense companion for P_A
    exactdet.SELF_CHECK = True


@pytest.fixture(scope="session")
def plane2():
    return projective_plane(2)


@pytest.fixture(scope="session")
def pres2(plane2):
    return find_triangle_presentation(plane2)


@pytest.fixture(scope="session")
def base2(pres2):
    return base_quotient(pres2)


@pytest.fixture(scope="session")
def two_bases(base2):
    """Two disjoint copies of the q=2 base, the second's ids raised by 100."""
    shift = 100
    return ComplexDescription(
        q=2,
        vertices=list(base2.vertices) + [(v.id + shift, v.vtype) for v in base2.vertices],
        edges=list(base2.edges)
        + [(e.id + shift, e.tail + shift, e.head + shift) for e in base2.edges],
        chambers=list(base2.chambers)
        + [(c.id + shift, *(e + shift for e in c.edge_ids)) for c in base2.chambers],
        provenance=Geometric(),
    )


@pytest.fixture(scope="session")
def pres_m2(plane2):
    pres = first_presentation_with_covers(plane2, 2)
    assert pres is not None
    return pres


@pytest.fixture(scope="session")
def covers_m2(pres_m2):
    return [cx for _idx, cx in connected_covers(pres_m2, 2)]


@pytest.fixture(scope="session")
def cover_m2(covers_m2):
    return covers_m2[0]


@pytest.fixture(scope="session")
def pres_m3(plane2):
    pres = first_presentation_with_covers(plane2, 3)
    assert pres is not None
    return pres


@pytest.fixture(scope="session")
def cover_m3(pres_m3):
    return connected_covers(pres_m3, 3)[0][1]


@pytest.fixture(scope="session")
def cover_m7(plane2):
    """One q=2 m=7 cover: L_E has 147 rows, L_B 441."""
    return connected_covers(first_presentation_with_covers(plane2, 7), 7)[0][1]


@pytest.fixture(scope="session")
def small_battery(base2, covers_m2, cover_m3):
    """Base plus the small covers; the m=7 cover only joins the acceptance run."""
    return [base2] + covers_m2 + [cover_m3]


@pytest.fixture(scope="session")
def base3():
    return base_quotient(find_triangle_presentation(projective_plane(3)))


@pytest.fixture(scope="session")
def presentations3():
    search = iter_triangle_presentations(projective_plane(3))
    return [next(search) for _ in range(5)]


@pytest.fixture(scope="session")
def p4_m2_covers(presentations3):
    """Presentation 4's three connected m=2 covers: L_B has 312 rows, and its
    period-3 product X 104."""
    return [cx for _v, cx in connected_covers(presentations3[4], 2)]


def geometric_copy(cx):
    """The same complex as explicit lists, without its presentation."""
    return ComplexDescription(q=cx.q, vertices=cx.vertices, edges=cx.edges,
                              chambers=cx.chambers, provenance=Geometric())


def dense_parts(cx):
    """``zeta_parts`` of the complex's own incidence-rule operators, injected:
    the dense char_rev route, whatever the complex's provenance."""
    return zeta_parts(cx, operators=(build_a1(cx), build_a2(cx), build_le(cx), build_lb(cx)))


@pytest.fixture(scope="session")
def rich2(plane2):
    """The base of q=2 presentation 2 (``zeta3 gen --presentation-index 2``)."""
    search = iter_triangle_presentations(plane2)
    return base_quotient(next(p for k, p in enumerate(search) if k == 2))


@pytest.fixture(scope="session")
def rewired2(base2):
    """The q=2 base with the middle edges of chambers 0 and 3 swapped: it
    passes validation but is no quotient."""
    chambers = [list(c) for c in base2.chambers]
    chambers[0][1], chambers[3][1] = chambers[3][1], chambers[0][1]
    return ComplexDescription(q=2, vertices=base2.vertices, edges=base2.edges,
                              chambers=chambers, provenance=Geometric())


@pytest.fixture(scope="session")
def rewired_m2(cover_m2):
    """The geometric copy of ``cover_m2`` with the middle edges of chambers 0
    and 1, parallel edges, swapped: it passes validation, and has no free
    symmetry."""
    chambers = [list(c) for c in cover_m2.chambers]
    chambers[0][2], chambers[1][2] = chambers[1][2], chambers[0][2]
    return ComplexDescription(q=2, vertices=cover_m2.vertices, edges=cover_m2.edges,
                              chambers=chambers, provenance=Geometric())


@pytest.fixture(scope="session")
def reference_battery(small_battery, base3, p4_m2_covers, rich2, rewired2):
    """The complexes the array builders are compared on with their per-entry
    references: the q=2 battery, the q=3 base and p4's first two m=2 covers,
    the geometric copy of each, and the rich and rewired q=2 files."""
    presented = small_battery + [base3] + p4_m2_covers[:2] + [rich2]
    return presented + [geometric_copy(cx) for cx in presented] + [rewired2]
