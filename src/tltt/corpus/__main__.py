"""Print the corpus manifest (paths and modes) for shell pipelines."""

import argparse

from tltt.corpus import corpus_manifest, default_run_files, strong_run_files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tltt.corpus")
    parser.add_argument("--paths", action="store_true",
                        help="print file paths only, one per line")
    parser.add_argument("--mode", choices=("default", "strong"), default=None,
                        help="restrict to the files of one checking mode")
    args = parser.parse_args(argv)
    if args.mode == "default":
        files = default_run_files()
    elif args.mode == "strong":
        files = strong_run_files()
    elif args.paths:
        files = [str(entry.path) for entry in corpus_manifest()]
    else:
        files = None
    if files is not None:
        print("\n".join(files))
        return 0
    for entry in corpus_manifest():
        print(f"{entry.path}\t{entry.mode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
