"""Print, or check, the ziggurat tables of numpy's standard-normal sampler.

    python scripts/ziggurat_tables.py            # print the literal for repronet.seeding
    python scripts/ziggurat_tables.py --check    # compare the installed numpy's tables with it

numpy draws ``Generator.standard_normal`` through the ziggurat tables
``ki_double``, ``wi_double`` and ``fi_double`` (256 entries each), which are
local symbols of ``src_distributions_distributions.c.o`` inside the static
library ``numpy/random/lib/libnpyrandom.a`` that numpy installs.  This script
reads them out of that archive with the standard library alone (the ``ar``
member list, then the object's ELF64 section and symbol tables) and prints
them as the base64 literal ``repronet.seeding`` decodes at import: the 768
little-endian 8-byte words ki, wi, fi, in that order.  ``--check`` exits 1
when the committed literal differs from the installed library's tables, and
both commands exit 2 when the archive or a symbol is missing.
"""

from __future__ import annotations

import argparse
import binascii
import struct
import sys
from pathlib import Path

MEMBER = "src_distributions_distributions.c.o"
SYMBOLS = ("ki_double", "wi_double", "fi_double")
TABLE_BYTES = 256 * 8
LINE = 100


def archive_path() -> Path:
    import numpy

    return Path(numpy.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def ar_member(data: bytes, name: str) -> bytes:
    """One member of a System V / GNU ``ar`` archive, by name."""
    if not data.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(data):
        header = data[pos : pos + 60]
        raw_name, size = header[:16].decode().rstrip(), int(header[48:58])
        body = data[pos + 60 : pos + 60 + size]
        if raw_name == "//":
            long_names = body
        elif raw_name.startswith("/") and raw_name[1:].isdigit():  # GNU long name: offset into "//"
            start = int(raw_name[1:])
            raw_name = long_names[start : long_names.index(b"\n", start)].decode()
        if raw_name.rstrip("/") == name:
            return body
        pos += 60 + size + (size & 1)
    raise KeyError(f"no member {name}")


def elf_symbols(obj: bytes, names) -> dict[str, bytes]:
    """The bytes of each named data symbol of a little-endian ELF64 relocatable object."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        raise ValueError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (type, file offset, size, link, entry size) of every section
    sections = [
        struct.unpack_from("<4xI16xQQI4x8xQ", obj, shoff + i * shentsize) for i in range(shnum)
    ]
    found = {}
    for kind, offset, size, link, entsize in sections:
        if kind != 2:  # SHT_SYMTAB
            continue
        strtab = sections[link][1]
        for at in range(offset, offset + size, entsize):
            name_at, _, _, shndx, value, sym_size = struct.unpack_from("<IBBHQQ", obj, at)
            name = obj[strtab + name_at : obj.index(b"\0", strtab + name_at)].decode()
            if name in names:
                start = sections[shndx][1] + value
                found[name] = obj[start : start + sym_size]
    missing = [name for name in names if name not in found]
    if missing:
        raise KeyError(f"no symbol {', '.join(missing)}")
    return found


def installed_tables() -> bytes:
    path = archive_path()
    if not path.is_file():
        raise FileNotFoundError(f"{path} is missing; this numpy does not ship its static random library")
    symbols = elf_symbols(ar_member(path.read_bytes(), MEMBER), SYMBOLS)
    for name, raw in symbols.items():
        if len(raw) != TABLE_BYTES:
            raise ValueError(f"{name} holds {len(raw)} bytes, expected {TABLE_BYTES}")
    return b"".join(symbols[name] for name in SYMBOLS)


def literal(tables: bytes) -> str:
    text = binascii.b2a_base64(tables, newline=False).decode()
    return "\n".join(f'    "{text[i : i + LINE]}"' for i in range(0, len(text), LINE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed tables")
    args = parser.parse_args(argv)
    try:
        tables = installed_tables()
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.check:
        print(literal(tables))
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repronet.seeding import _ZIGGURAT

    if binascii.a2b_base64(_ZIGGURAT) != tables:
        print("the committed ziggurat tables differ from the installed numpy's", file=sys.stderr)
        return 1
    print(f"ziggurat tables match {archive_path()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
