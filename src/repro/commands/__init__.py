"""One module per ``python -m repro`` command.

Each command module declares its options in ``add_arguments(parser)`` next
to its handler ``run(args) -> int``, and its docstring is the command's
help.  :mod:`repro.cli` builds the parser from them and maps failures to
exit codes; :mod:`repro.commands.common` holds the options several
commands share.
"""
