"""One module per subcommand: `segdial.cli.main` imports the one it runs,
and calls its `run(args)`."""
