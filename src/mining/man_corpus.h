// The bundled documentation corpus: synthetic man pages in conventional
// NAME/SYNOPSIS/DESCRIPTION/OPTIONS/EXIT STATUS layout for the modeled
// utilities. These substitute for the real man-page collection the paper's
// LLM reads (the substitution preserves the pipeline: natural-language-ish
// docs in, guardrailed SyntaxSpec out).
#ifndef SASH_MINING_MAN_CORPUS_H_
#define SASH_MINING_MAN_CORPUS_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sash::mining {

struct ManPage {
  std::string_view name;
  std::string_view text;
};

// The corpus as compile-time data, sorted by command name. The analysis
// cache key folds in a SHA-256 of this table computed at compile time.
inline constexpr ManPage kManPages[] = {
    {"cat", R"(NAME
       cat - concatenate and print files

SYNOPSIS
       cat [-n] [-u] [file...]

DESCRIPTION
       The cat utility reads each file in sequence and writes it to standard
       output. Reading a directory is an error.

OPTIONS
       -n     Number the output lines.

       -u     Write without delay (ignored).

OPERANDS
       file   A pathname of an input file. With no operands, standard input
              is read.

EXIT STATUS
       0 if every input file was read; >0 otherwise.
)"},
    {"cp", R"(NAME
       cp - copy files

SYNOPSIS
       cp [-r] [-f] [-p] source... target

DESCRIPTION
       The cp utility copies each source to target. Copying a directory
       requires -r.

OPTIONS
       -r, --recursive
              Copy file hierarchies.

       -R     Equivalent to -r.

       -f, --force
              Overwrite destination files without prompting.

       -p, --preserve
              Duplicate characteristics of the source files.

OPERANDS
       source A pathname of a file to copy.

       target The destination pathname or directory.

EXIT STATUS
       0 if all files were copied; >0 otherwise.
)"},
    {"ls", R"(NAME
       ls - list directory contents

SYNOPSIS
       ls [-l] [-a] [-1] [-d] [path...]

DESCRIPTION
       For each operand that names a directory, ls writes the names of the
       entries it contains; for other operands, the name itself.

OPTIONS
       -l     Write output in long format.

       -a, --all
              Include entries whose names begin with a dot.

       -1     Write one entry per line.

       -d, --directory
              List directories as plain entries rather than their contents.

OPERANDS
       path   A pathname to list. With no operands, the current directory.

EXIT STATUS
       0 on success; >0 if an operand could not be accessed.
)"},
    {"mkdir", R"(NAME
       mkdir - make directories

SYNOPSIS
       mkdir [-p] [-m mode] dir...

DESCRIPTION
       The mkdir utility creates the directories named by its operands.

OPTIONS
       -p, --parents
              Create intermediate components as required; do not treat an
              existing directory as an error.

       -m mode
              Set the file permission bits of the created directories.

OPERANDS
       dir    A pathname of a directory to be created.

EXIT STATUS
       0 if all directories were created; >0 otherwise.
)"},
    {"mv", R"(NAME
       mv - move files

SYNOPSIS
       mv [-f] [-i] source... target

DESCRIPTION
       The mv utility moves each source operand to the destination target.

OPTIONS
       -f, --force
              Do not prompt for confirmation.

       -i, --interactive
              Prompt before overwriting.

OPERANDS
       source A pathname of a file or directory to be moved.

       target The destination pathname or directory.

EXIT STATUS
       0 if all operands were moved; >0 otherwise.
)"},
    {"realpath", R"(NAME
       realpath - resolve a pathname

SYNOPSIS
       realpath [-e] [-m] path...

DESCRIPTION
       The realpath utility writes the absolute canonical form of each path,
       resolving every symbolic link and removing dot components.

OPTIONS
       -e, --canonicalize-existing
              Require every component of the path to exist.

       -m, --canonicalize-missing
              Do not require any component to exist.

OPERANDS
       path   A pathname to canonicalize.

EXIT STATUS
       0 if every path was resolved; >0 otherwise.
)"},
    {"rm", R"(NAME
       rm - remove directory entries

SYNOPSIS
       rm [-f] [-r] [-i] [-v] file...

DESCRIPTION
       The rm utility removes the directory entry specified by each file
       argument. If a file is a directory, rm fails unless -r is given.

OPTIONS
       -f, --force
              Do not prompt for confirmation, and do not write diagnostic
              messages or modify the exit status if the file does not exist.

       -r, --recursive
              Remove file hierarchies rooted in each file argument.

       -R     Equivalent to -r.

       -i, --interactive
              Prompt for confirmation before removing each file.

       -v, --verbose
              Write a message for each removed file.

OPERANDS
       file   A pathname of a directory entry to be removed.

EXIT STATUS
       0 if all named entries were removed; >0 if an error occurred.
)"},
    {"rmdir", R"(NAME
       rmdir - remove empty directories

SYNOPSIS
       rmdir [-p] dir...

DESCRIPTION
       The rmdir utility removes each dir operand, which must refer to an
       empty directory.

OPTIONS
       -p, --parents
              Remove each component of the specified pathnames.

OPERANDS
       dir    A pathname of an empty directory to be removed.

EXIT STATUS
       0 if every directory was removed; >0 otherwise.
)"},
    {"touch", R"(NAME
       touch - change file access and modification times

SYNOPSIS
       touch [-c] file...

DESCRIPTION
       The touch utility updates timestamps of each file. A file that does
       not exist is created empty, unless -c is given.

OPTIONS
       -c, --no-create
              Do not create any missing files.

OPERANDS
       file   A pathname of a file whose times are to be changed.

EXIT STATUS
       0 on success; >0 otherwise.
)"},
};

// Command name -> man-page text (kManPages as a map).
const std::map<std::string, std::string>& ManCorpus();

// Names of all documented commands (sorted).
std::vector<std::string> DocumentedCommands();

}  // namespace sash::mining

#endif  // SASH_MINING_MAN_CORPUS_H_
