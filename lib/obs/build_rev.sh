# Prints build_rev.ml: the git revision of the source tree being built, as
# [git rev-parse HEAD] prints it, with "-dirty" when a tracked file differs
# from HEAD (untracked files, such as build output, do not count), or None
# when git is missing or the tree is not a git checkout.
if rev=$(git -C "$DUNE_SOURCEROOT" rev-parse HEAD 2>/dev/null); then
  if [ -n "$(git -C "$DUNE_SOURCEROOT" --no-optional-locks status --porcelain --untracked-files=no 2>/dev/null)" ]; then
    rev="$rev-dirty"
  fi
  printf 'let rev : string option = Some "%s"\n' "$rev"
else
  printf 'let rev : string option = None\n'
fi
