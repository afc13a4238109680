"""tools/command_matrix.py's configs, checked without running a command."""

import importlib.util
from pathlib import Path

import pytest

from lambda_adapt.config import load_config

_PATH = Path(__file__).resolve().parent.parent / "tools" / "command_matrix.py"
_SPEC = importlib.util.spec_from_file_location("command_matrix", _PATH)
command_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(command_matrix)


def entries(text):
    parser = command_matrix.read_ini(text)
    return {(section, key): value for section in parser.sections()
            for key, value in parser[section].items()}


@pytest.mark.parametrize("name", sorted(command_matrix.EDITS))
def test_edit_loads_and_changes_only_its_keys(tmp_path, name):
    edit = command_matrix.EDITS[name]
    text = command_matrix.config_text(edit)
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    load_config(path)
    before = entries(command_matrix.DEFAULT.read_text())
    after = entries(text)
    changed = {key for key in before.keys() | after.keys()
               if before.get(key) != after.get(key)}
    assert changed == {(section, key) for section, keys in edit.items()
                       for key in keys}
    for section, keys in edit.items():
        for key, value in keys.items():
            assert after.get((section, key)) == value
