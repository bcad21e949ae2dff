import dataclasses
from pathlib import Path

import symdisk
from symdisk.config import Tolerances

SRC = Path(symdisk.__file__).resolve().parent


def test_every_tolerance_field_is_read():
    # a field that no module reads is a knob that --tol-<name> accepts and ignores
    text = "".join(path.read_text() for path in sorted(SRC.glob("*.py"))
                   if path.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Tolerances) if f".{f.name}" not in text]
    assert unread == []
