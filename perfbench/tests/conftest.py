import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from pourplan import geometry, presets  # noqa: E402


@pytest.fixture(scope="session")
def tables():
    # 2-degree sampling keeps the tests fast; the benchmark builds at 1 degree
    return geometry.build_tables(presets.cylinder_profile(),
                                 theta_step=math.radians(2.0))
